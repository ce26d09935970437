import contextlib
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurlab import tensor as T
from recurlab.models import ModelConfig, ParamGraph, init_params, model_forward


def test_softmax_uniform_over_equal_logits():
    out = T.softmax(T.constant([0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25])


def test_matmul_identity():
    out = T.matmul(T.constant(np.eye(2)), T.constant([[3.0, 1.0], [4.0, 1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0, 1.0], [4.0, 1.0]])


def test_exp_against_stdlib():
    out = T.exp(T.constant([0.0, 1.0]))
    np.testing.assert_allclose(out.data, [1.0, np.e], rtol=1e-15)


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))
    assert "matmul" in str(err.value)
    assert "(2, 3)" in str(err.value)


def test_nonfinite_output_raises_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(T.GraphOverflowError) as err:
            T.exp(T.constant([1000.0]))
    assert err.value.op_kind == "exp"


def test_log_of_zero_raises_overflow_with_node_id():
    with pytest.raises(T.GraphOverflowError) as err:
        T.log(T.constant([0.0]))
    assert err.value.op_kind == "log" and err.value.node_id >= 0


@pytest.mark.parametrize("scoped", [False, True], ids=["bare", "in-scope"])
@pytest.mark.parametrize("numerator", [1.0, 0.0], ids=["x/0", "0/0"])
def test_divide_by_zero_raises_overflow(numerator, scoped):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(T.GraphOverflowError) as err:
            if scoped:
                with T.graph_scope():
                    T.constant([numerator]) / T.constant([0.0])
            else:
                T.constant([numerator]) / T.constant([0.0])
    assert err.value.op_kind == "divide"


def test_backward_sum():
    x = T.constant([1.0, 2.0, 3.0])
    T.backward(x.sum())
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_product_rule():
    x, y = T.constant(2.0), T.constant(3.0)
    T.backward(x * y)
    assert x.grad == 3.0 and y.grad == 2.0


def test_backward_requires_scalar_root():
    x = T.constant([1.0, 2.0])
    with pytest.raises(T.ShapeError):
        T.backward(x)


def test_backward_softmax_cross_entropy():
    # frozen via central differences: softmax([1,2,3]) - onehot(class 2)
    logits = T.constant([1.0, 2.0, 3.0])
    p = T.softmax(logits)
    loss = -(p.slice(2).log())
    T.backward(loss)
    np.testing.assert_allclose(logits.grad, [0.0900, 0.2447, -0.3348], atol=1e-4)


def test_backward_accumulates_without_reset():
    x = T.constant([1.0, 1.0])
    root = x.sum()
    T.backward(root)
    x.zero_grad()
    root2 = x.sum()
    T.backward(root2)
    T.backward(root2)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_backward_accumulates_through_inner_nodes():
    # each call adds exactly one unit seed at every node, inner ones included
    x = T.constant([1.0, 2.0])
    y = x * T.constant(3.0)
    root = (y * y).sum()
    T.backward(root)
    T.backward(root)
    np.testing.assert_array_equal(root.grad, 2.0)
    np.testing.assert_array_equal(y.grad, [12.0, 24.0])
    np.testing.assert_array_equal(x.grad, [36.0, 72.0])
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])
    T.backward(root)
    np.testing.assert_array_equal(x.grad, [18.0, 36.0])
    np.testing.assert_array_equal(y.grad, [18.0, 36.0])


def test_unreached_parameter_reads_zero_grad():
    pg = ParamGraph({"w": np.ones(3), "spare": np.ones((2, 4))})
    pg["spare"]                      # built, but the loss never reads it
    T.backward((pg["w"] * pg["w"]).sum())
    grads = pg.grads()
    np.testing.assert_array_equal(grads["w"], [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(grads["spare"], np.zeros((2, 4)))


def test_grad_check_quadratic():
    report = T.grad_check(lambda vs: (vs[0] * vs[0]).sum(), [np.array([1.0, 2.0])])
    assert report.max_rel_err < 1e-6


def test_grad_check_constant_function():
    report = T.grad_check(lambda vs: (vs[0] * T.constant([0.0, 0.0])).sum(),
                          [np.array([1.0, 2.0])])
    assert report.max_rel_err == 0.0
    assert report.analytic == 0.0 and report.numeric == 0.0


def test_grad_check_rnn_step_loss():
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=(4, 4))
    w2 = rng.normal(size=(4, 4))

    def f(vs):
        h, x = vs
        step = T.nonlinearity(T.matmul(h, T.constant(w1)) + T.matmul(x, T.constant(w2)), "tanh")
        return (step * step).sum()

    report = T.grad_check(f, [rng.normal(size=4), rng.normal(size=4)])
    assert report.max_rel_err < 1e-5


def test_grad_check_rejects_bad_eps():
    with pytest.raises(T.TensorError):
        T.grad_check(lambda vs: vs[0].sum(), [np.array(1.0)], eps=0.5)


def _random_graph_scalar(vs):
    a, b = vs
    m = T.matmul(a, b)
    s = T.softmax(m)
    e = T.exp(a * T.constant(0.1))
    cat = T.concat([s, e], axis=1)
    return (T.nonlinearity(cat, "elu_plus_one").log()).sum()


@pytest.mark.parametrize("seed", range(20))
def test_grad_check_mixed_ops(seed):
    rng = np.random.default_rng(seed)
    report = T.grad_check(_random_graph_scalar,
                          [rng.normal(size=(3, 4)), rng.normal(size=(4, 4))])
    assert report.max_rel_err < 1e-5


@pytest.mark.parametrize("kind", list(T.NONLINEARITIES))
def test_grad_check_nonlinearities(kind):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # keep relu inputs away from the kink
        x = rng.normal(size=6)
        x = np.where(np.abs(x) < 1e-3, 0.5, x)
        report = T.grad_check(lambda vs: T.nonlinearity(vs[0], kind).sum(), [x])
        assert report.max_rel_err < 1e-5, (kind, seed)


def test_concat_and_slice_grads():
    report = T.grad_check(
        lambda vs: T.concat([vs[0], vs[1]], axis=0).slice(slice(1, 4)).sum(),
        [np.arange(3.0), np.arange(2.0)])
    assert report.max_rel_err < 1e-8


@pytest.mark.parametrize("keepdims", [False, True], ids=["dropped", "keepdims"])
@pytest.mark.parametrize("axis", [0, -1])
def test_grad_check_sum_over_axis(axis, keepdims):
    def f(vs):
        s = T.vsum(vs[0], axis=axis, keepdims=keepdims)
        return (s * s * T.constant(np.arange(1.0, 1.0 + s.data.size).reshape(s.shape))).sum()

    report = T.grad_check(f, [np.random.default_rng(0).normal(size=(3, 4))])
    assert report.max_rel_err < 1e-6


def test_grad_check_concat_three_along_last_axis():
    rng = np.random.default_rng(1)
    weights = T.constant(rng.normal(size=(2, 6)))
    report = T.grad_check(
        lambda vs: (T.concat(vs, axis=-1) * T.concat(vs, axis=-1) * weights).sum(),
        [rng.normal(size=(2, 3)), rng.normal(size=(2, 1)), rng.normal(size=(2, 2))])
    assert report.max_rel_err < 1e-6


@pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((3, 1), (3, 4))],
                         ids=["broadcast-right", "broadcast-left"])
@pytest.mark.parametrize("op", [T.sub, T.divide], ids=["sub", "divide"])
def test_grad_check_broadcast_operand(op, shapes):
    rng = np.random.default_rng(2)
    # operands kept in [1, 2] so the divisor is well away from zero
    point = [rng.uniform(1.0, 2.0, size=s) for s in shapes]
    report = T.grad_check(lambda vs: (op(vs[0], vs[1]) * op(vs[0], vs[1])).sum(), point)
    assert report.max_rel_err < 1e-6


@pytest.mark.parametrize("shapes", [((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,)),
                                    ((2, 3, 4), (4,)), ((4,), (2, 4, 3))],
                         ids=["vec-mat", "mat-vec", "vec-vec", "batch-vec", "vec-batch"])
def test_grad_check_matmul_with_1d_operand(shapes):
    rng = np.random.default_rng(3)
    report = T.grad_check(lambda vs: (T.matmul(*vs) * T.matmul(*vs)).sum(),
                          [rng.normal(size=s) for s in shapes])
    assert report.max_rel_err < 1e-6


def test_take_rows_grad_scatter():
    table = T.parameter(np.arange(12.0).reshape(4, 3))
    picked = T.take_rows(table, [0, 0, 2])
    T.backward(picked.sum())
    np.testing.assert_array_equal(table.grad[:, 0], [2.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("key, basic", [
    (slice(1, 3), True), (2, True), (np.int64(2), True), (None, True), (Ellipsis, True),
    ((slice(None), 1), True), ((Ellipsis, np.int32(0), None), True), ((), True),
    (True, False), ((slice(None), False), False), ([0, 1], False),
    (np.array([0, 1]), False), ((slice(None), np.array([0])), False),
], ids=["slice", "int", "np-int64", "none", "ellipsis", "tuple", "tuple-np-int32-none",
        "empty-tuple", "bool", "tuple-bool", "list", "ndarray", "tuple-ndarray"])
def test_basic_keys_are_the_view_keys(key, basic):
    """A key of slices, ints (numpy's too), ``...`` and None selects a view;
    a bool is a mask, and a list or array a gather."""
    assert T._is_basic_key(key) is basic
    # the view form's backward adds in place, the gather form's with add.at
    assert (T.parameter(np.ones((3, 4))).slice(key).op.backward is T._slice_bwd) is basic


def test_overlapping_basic_slices_both_reach_grad():
    x = T.parameter(np.arange(10.0).reshape(2, 5))
    left = x.slice((slice(None), slice(0, 3)))
    right = x.slice((Ellipsis, slice(1, 5)))
    corner = x.slice((1, 2))
    T.backward(left.sum() + (right * T.constant(2.0)).sum() + corner * T.constant(5.0))
    np.testing.assert_array_equal(x.grad, [[1.0, 3.0, 3.0, 2.0, 2.0],
                                           [1.0, 3.0, 8.0, 2.0, 2.0]])


def test_fancy_slice_sums_repeated_cells():
    x = T.parameter(np.arange(4.0))
    T.backward(x.slice([1, 1, 3]).sum())
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 0.0, 1.0])


@pytest.mark.parametrize("arch", ["transformer", "rwkv", "linear-transformer"])
def test_forward_only_graph_allocates_no_grads(arch):
    cfg = ModelConfig(arch=arch, vocab_size=5, d_model=8, n_layers=1)
    res = model_forward(cfg, init_params(cfg), np.zeros((2, 4), dtype=int))
    nodes = {n.id: n for lg in res.logits for n in T.topo_nodes(lg)}
    assert len(nodes) > 20
    assert all(n._grad is None for n in nodes.values())


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_ids_strictly_increase_along_parent_edges(choices):
    vs = [T.constant(np.ones(2))]
    for c in choices:
        a = vs[c % len(vs)]
        b = vs[(c + 1) % len(vs)]
        vs.append([T.add, T.mul, lambda x, _: T.exp(x * T.constant(0.01)),
                   lambda x, y: T.concat([x, y]).slice(slice(0, 2))][c](a, b))
    for v in vs:
        for p in v.parents:
            assert p.id < v.id


def test_forward_determinism_bit_identical():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))

    def run():
        v = T.constant(x)
        return T.softmax(T.matmul(v, v) + v).data

    assert np.array_equal(run(), run())


# -- batched finite checks inside graph_scope --------------------------------

# each builds one faulty small node, then finite nodes that read it
OVERFLOWS = {
    "exp": lambda: T.exp(T.constant([1000.0])),
    "log": lambda: T.log(T.constant([0.0])),
    "divide": lambda: T.constant([1.0]) / T.constant([0.0]),
    "mul": lambda: T.constant([1e200]) * T.constant([1e200]),
}


def _overflow_offset(build, scoped):
    """(op kind, node id less the id of a probe taken just before) of the
    overflow ``build`` raises, with more nodes built after the faulty one."""
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        if scoped:
            with T.graph_scope():
                y = build()
                (y + T.constant([1.0])).sum()
        else:
            with np.errstate(over="ignore"):
                y = build()
    return err.value.op_kind, err.value.node_id - start


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_scoped_overflow_names_the_same_op_and_node(op):
    bare = _overflow_offset(OVERFLOWS[op], scoped=False)
    assert bare[0] == op
    assert _overflow_offset(OVERFLOWS[op], scoped=True) == bare


@pytest.mark.parametrize("scoped", [False, True], ids=["bare", "in-scope"])
@pytest.mark.parametrize("op", ["exp", "log", "divide"])
def test_overflow_raises_without_a_warning(op, scoped):
    """Each op silences numpy's warnings outside a scope, and a scope
    silences them for every op inside it, divisions by zero included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(T.GraphOverflowError) as err:
            with T.graph_scope() if scoped else contextlib.nullcontext():
                OVERFLOWS[op]()
    assert err.value.op_kind == op


@pytest.mark.parametrize("exit_by", ["end", "overflow", "error"])
def test_scope_leaves_numpy_error_state_as_it_was(exit_by):
    before = np.geterr()
    with contextlib.suppress(T.GraphOverflowError, ValueError):
        with T.graph_scope():
            assert {np.geterr()[k] for k in ("over", "invalid", "divide")} == {"ignore"}
            with T.graph_scope():
                if exit_by == "overflow":
                    T.exp(T.constant([1000.0]))
                elif exit_by == "error":
                    raise ValueError
    assert np.geterr() == before


def test_scoped_overflow_reports_the_earlier_of_two():
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope():
            T.log(T.constant([0.0]))                # node start + 2
            T.exp(T.constant([1000.0]))
    assert (err.value.op_kind, err.value.node_id) == ("log", start + 2)


@pytest.mark.parametrize("then", ["large-overflow", "shape-error"])
def test_small_overflow_wins_over_a_later_error(then):
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope():
            T.exp(T.constant([1000.0]))             # node start + 2
            if then == "large-overflow":
                T.exp(T.constant(np.full(4096, 1000.0)))
            else:
                T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))
    assert (err.value.op_kind, err.value.node_id) == ("exp", start + 2)


def test_large_node_checks_pending_nodes_first():
    # the error a large node raises is already the earlier small node's
    start = T.constant(0.0).id
    with T.graph_scope():
        T.exp(T.constant([1000.0]))                 # node start + 2
        with pytest.raises(T.GraphOverflowError) as err:
            T.exp(T.constant(np.full(4096, 1000.0)))
    assert (err.value.op_kind, err.value.node_id) == ("exp", start + 2)


def test_large_node_is_checked_when_built_in_scope():
    reached = False
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope():
            T.exp(T.constant(np.full(T._DEFER_SIZE + 1, 1000.0)))
            reached = True
    assert err.value.op_kind == "exp" and not reached


def test_a_finite_large_node_leaves_pending_nodes_alone():
    with T.graph_scope():
        small = T.constant([1.0])
        T.constant(np.ones(T._DEFER_SIZE + 1))
        assert [v.id for v in T._pending] == [small.id]


def test_scoped_overflow_raises_within_one_batch():
    built = 0
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope():
            T.exp(T.constant([1000.0]))
            for _ in range(2 * T._BATCH):
                T.constant([1.0])
                built += 1
    assert err.value.op_kind == "exp" and built < T._BATCH


def test_backward_checks_pending_nodes_before_writing_gradients():
    with T.graph_scope():
        p = T.parameter(np.ones(3))
        bad = T.exp(p * T.constant(np.full(3, 1000.0)))
        loss = bad.sum()
        with pytest.raises(T.GraphOverflowError) as err:
            T.backward(loss)
    assert (err.value.op_kind, err.value.node_id) == ("exp", bad.id)
    assert p._grad is None and bad._grad is None and loss._grad is None


def test_interrupt_drops_pending_nodes():
    with pytest.raises(KeyboardInterrupt):
        with T.graph_scope():
            T.exp(T.constant([1000.0]))
            raise KeyboardInterrupt
    assert not T._pending


@pytest.mark.parametrize("outer", [False, True], ids=["bare", "in-scope"])
def test_model_forward_leaves_no_pending_node(outer):
    cfg = ModelConfig(arch="transformer", vocab_size=5, d_model=8, n_layers=1)
    params = init_params(cfg)
    with T.graph_scope() if outer else contextlib.nullcontext():
        res = model_forward(cfg, params, np.zeros((1, 3), dtype=int))
        assert not T._pending
        # the logits node is small, so it was pending until the scope closed
        assert res.logits[-1].data.size <= T._DEFER_SIZE
        ref = weakref.ref(res.logits[-1].data)
        del res
        assert ref() is None


# -- fused layer norm ---------------------------------------------------------

def layer_norm_chain(x, gain, bias, eps=1e-6):
    """The 13 elementary ops (and 4 constants) that ``T.layer_norm`` fuses,
    as the models built them one node each."""
    d = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * T.constant(1.0 / d)
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * T.constant(1.0 / d)
    inv_std = T.exp(T.log(var + T.constant(eps)) * T.constant(-0.5))
    return centered * inv_std * gain + bias


def _layer_norm_run(ln, shape, residual):
    """Data of ``ln``'s output and the gradients of x's source, gain and bias
    under a weighted-sum loss; x is an inner node, and with ``residual`` it
    also feeds a residual add built after the norm."""
    rng = np.random.default_rng(sum(shape))
    src = T.parameter(rng.normal(size=shape))
    gain = T.parameter(rng.normal(size=shape[-1:]))
    bias = T.parameter(rng.normal(size=shape[-1:]))
    x = T.nonlinearity(src, "tanh") * T.constant(3.0)
    out = ln(x, gain, bias, 1e-6)
    if residual:
        out = out + x
    T.backward((out * T.constant(rng.normal(size=shape))).sum())
    return [a.tobytes() for a in (out.data, src.grad, x.grad, gain.grad, bias.grad)]


@pytest.mark.parametrize("residual", [False, True], ids=["alone", "residual"])
@pytest.mark.parametrize("shape", [(3, 8), (1, 5), (4, 1), (2, 4, 7), (2, 3, 16)])
def test_layer_norm_matches_the_chain_byte_for_byte(shape, residual):
    fused = _layer_norm_run(T.layer_norm, shape, residual)
    assert fused == _layer_norm_run(layer_norm_chain, shape, residual)


def test_layer_norm_builds_one_node():
    x = T.parameter(np.ones((2, 4)))
    start = T.constant(0.0).id
    out = T.layer_norm(x, T.parameter(np.ones(4)), T.parameter(np.zeros(4)), 1e-6)
    assert out.op_kind == "layer_norm" and out.id == start + 3
    assert [p.id for p in out.parents] == [x.id, start + 1, start + 2]


@pytest.mark.parametrize("gain_shape", [(3,), (1, 4), (4, 1)])
def test_layer_norm_rejects_gain_not_of_width_d(gain_shape):
    with pytest.raises(T.ShapeError, match="layer_norm"):
        T.layer_norm(T.parameter(np.ones((2, 4))), T.parameter(np.ones(gain_shape)),
                     T.parameter(np.zeros(4)), 1e-6)


LAYER_NORM_OVERFLOWS = {
    # the square overflows, so inv_std is 0 and the output finite
    "infinite-variance": ([[1e200, -1e200, 3.0]], [1.0, 1.0, 1.0]),
    # the row sum overflows, and the output is nan
    "infinite-mean": ([[1e308, 1e308, 0.0]], [1.0, 1.0, 1.0]),
    # the statistics are finite, the gain overflows the output
    "infinite-output": ([[1.0, -1.0, 0.0]], [1.7e308, 1.7e308, 1.7e308]),
}


@pytest.mark.parametrize("scoped", [False, True], ids=["bare", "in-scope"])
@pytest.mark.parametrize("case", sorted(LAYER_NORM_OVERFLOWS))
def test_layer_norm_overflow_names_its_node(case, scoped):
    x_data, gain_data = LAYER_NORM_OVERFLOWS[case]
    x, gain = T.constant(x_data), T.parameter(gain_data)
    bias = T.parameter(np.zeros(3))
    # the unfused chain overflows as well
    with pytest.raises(T.GraphOverflowError), np.errstate(over="ignore", invalid="ignore"):
        layer_norm_chain(x, gain, bias)
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope() if scoped else contextlib.nullcontext():
            out = T.layer_norm(x, gain, bias, 1e-6)
            (out + T.constant([1.0])).sum()
    assert (err.value.op_kind, err.value.node_id) == ("layer_norm", start + 1)
    assert not T._pending


def test_layer_norm_overflow_reports_an_earlier_pending_node_first():
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope():
            T.exp(T.constant([1000.0]))             # node start + 2
            T.layer_norm(T.constant([[1e200, -1e200, 3.0]]), T.parameter(np.ones(3)),
                         T.parameter(np.zeros(3)), 1e-6)
    assert (err.value.op_kind, err.value.node_id) == ("exp", start + 2)


# -- fused affine maps, LSTM cell and cross-entropy -------------------------

def affine_chain(pairs, bias):
    """The k matmul and k add nodes that ``T.affine`` fuses, as the models
    built them: each product added to the running sum, then the bias."""
    out = T.matmul(*pairs[0])
    for x, w in pairs[1:]:
        out = out + T.matmul(x, w)
    return out + bias


def lstm_chain(gates, c_prev):
    """The 13 elementary nodes that ``T.lstm_cell`` fuses, as ``lstm_step``
    built them; returns (h, c)."""
    d = c_prev.shape[-1]
    i, f, o, g = (T.nonlinearity(gates.slice((Ellipsis, slice(j * d, (j + 1) * d))), kind)
                  for j, kind in enumerate(("sigmoid", "sigmoid", "sigmoid", "tanh")))
    c = f * c_prev + i * g
    return o * T.nonlinearity(c, "tanh"), c


def cross_entropy_chain(x, onehot):
    """The 8 elementary ops (and 2 constants) that ``T.cross_entropy`` fuses,
    as the trainer built them per read position."""
    c = T.constant(x.data.max(axis=-1, keepdims=True))
    lse = T.log(T.exp(x - c).sum(axis=-1, keepdims=True)) + c
    return ((lse - x) * T.constant(onehot)).sum()


def _affine_case(xs, ws, bias):
    """The input arrays x0, W0, x1, W1, ..., bias of an affine map."""
    return [*(np.array(a, dtype=float) for pair in zip(xs, ws) for a in pair),
            np.array(bias, dtype=float)]


def _as_pairs(fn):
    """``fn(pairs, bias)`` called on the flat operands x0, W0, ..., bias."""
    return lambda *vs: fn(list(zip(vs[:-1:2], vs[1:-1:2])), vs[-1])


AFFINE_WIDTHS = (5, 3, 5)


def _affine_run(affine, k, lead):
    """Data of ``affine``'s output and the gradients of every source under a
    weighted-sum loss.  The operands are inner nodes of shape lead + (d,);
    with k = 3 the last pair reuses the first operand, and the first operand
    also feeds a node built after the map."""
    rng = np.random.default_rng(10 * k + len(lead))
    srcs = [T.parameter(rng.normal(size=lead + (d,))) for d in AFFINE_WIDTHS[:k]]
    xs = [T.nonlinearity(s, "tanh") * T.constant(3.0) for s in srcs]
    if k == 3:
        xs[2] = xs[0]
    ws = [T.parameter(rng.normal(size=(x.shape[-1], 4))) for x in xs]
    bias = T.parameter(rng.normal(size=4))
    out = affine(list(zip(xs, ws)), bias)
    loss = (out * T.constant(rng.normal(size=out.shape))).sum() + (xs[0] * xs[0]).sum()
    T.backward(loss)
    return [a.tobytes() for a in (out.data, bias.grad, *(v.grad for v in srcs + ws))]


@pytest.mark.parametrize("lead", [(3,), (2, 4)], ids=["B-d", "B-L-d"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_affine_matches_the_chain_byte_for_byte(k, lead):
    assert _affine_run(T.affine, k, lead) == _affine_run(affine_chain, k, lead)


def test_affine_builds_one_node_with_every_operand_as_parent():
    x, w, bias = T.parameter(np.ones((2, 3))), T.parameter(np.ones((3, 4))), T.parameter(np.ones(4))
    start = T.constant(0.0).id
    out = T.affine([(x, w), (x, w)], bias)
    assert out.op_kind == "affine" and out.id == start + 1
    assert out.parents == (x, w, x, w, bias)


@pytest.mark.parametrize("pairs, bias", [
    ([], (4,)),
    ([((2, 3), (3, 4))] * 4, (4,)),
    ([((2, 3), (2, 4))], (4,)),
    ([((2, 3), (3, 4)), ((3,), (3, 4))], (4,)),     # products of two shapes
    ([((2, 3), (3, 4))], (3, 2, 4)),                # a bias that widens the output
])
def test_affine_rejects_operands_the_chain_would_not_sum_in_one_shape(pairs, bias):
    with pytest.raises(T.TensorError, match="affine"):
        T.affine([(T.parameter(np.ones(a)), T.parameter(np.ones(b))) for a, b in pairs],
                 T.parameter(np.ones(bias)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_affine_grad_check(k):
    rng = np.random.default_rng(k)
    point = [rng.normal(size=s) for d in AFFINE_WIDTHS[:k] for s in ((2, d), (d, 3))]
    point.append(rng.normal(size=3))
    weights = T.constant(rng.normal(size=(2, 3)))

    report = T.grad_check(lambda vs: (_as_pairs(T.affine)(*vs) * weights).sum(), point)
    assert report.max_rel_err < 1e-6


def _lstm_run(cell, lead, d=3):
    """Data of two cell steps and the gradients of every source under a
    weighted-sum loss: the first step's c is the second's c_prev, and its h
    feeds the second step's gates."""
    rng = np.random.default_rng(len(lead) + d)
    srcs = [T.parameter(rng.normal(size=lead + (4 * d,))) for _ in range(2)]
    c_src = T.parameter(rng.normal(size=lead + (d,)))
    c0 = T.nonlinearity(c_src, "tanh") * T.constant(2.0)
    h1, c1 = cell(srcs[0] * T.constant(3.0), c0)
    h2, c2 = cell(srcs[1] * T.constant(3.0) + T.concat([h1] * 4, axis=-1), c1)
    weights = [T.constant(rng.normal(size=lead + (d,))) for _ in range(3)]
    T.backward((h2 * weights[0]).sum() + (c2 * weights[1]).sum() + (h1 * weights[2]).sum())
    return [a.tobytes() for a in (h1.data, c1.data, h2.data, c2.data,
                                  *(v.grad for v in srcs + [c_src]))]


@pytest.mark.parametrize("lead", [(2,), (2, 3)])
def test_lstm_cell_matches_the_chain_byte_for_byte(lead):
    assert _lstm_run(T.lstm_cell, lead) == _lstm_run(lstm_chain, lead)


def test_lstm_cell_builds_two_nodes():
    gates, c_prev = T.parameter(np.ones((2, 8))), T.parameter(np.ones((2, 2)))
    start = T.constant(0.0).id
    h, c = T.lstm_cell(gates, c_prev)
    assert (c.op_kind, c.id, c.parents) == ("lstm_c", start + 1, (gates, c_prev))
    assert (h.op_kind, h.id, h.parents) == ("lstm_h", start + 2, (gates, c))


@pytest.mark.parametrize("gates_shape, c_shape", [((2, 8), (2, 3)), ((2, 8), (1, 2)),
                                                  ((8,), ())])
def test_lstm_cell_rejects_gates_not_four_times_the_state(gates_shape, c_shape):
    with pytest.raises(T.ShapeError, match="lstm_c"):
        T.lstm_cell(T.parameter(np.ones(gates_shape)), T.parameter(np.ones(c_shape)))


def test_lstm_cell_grad_check():
    rng = np.random.default_rng(0)
    weights = [T.constant(rng.normal(size=(2, 3))) for _ in range(2)]

    def f(vs):
        h, c = T.lstm_cell(vs[0], vs[1])
        return (h * weights[0]).sum() + (c * weights[1]).sum()
    assert T.grad_check(f, [rng.normal(size=(2, 12)), rng.normal(size=(2, 3))]).max_rel_err < 1e-6


def _cross_entropy_run(ce, shape):
    """Data of two cross-entropy terms over one logits node (as the mlp's
    positions share theirs), scaled as the trainer scales the loss, and the
    gradient of the logits' source."""
    rng = np.random.default_rng(sum(shape))
    src = T.parameter(rng.normal(size=shape))
    x = T.nonlinearity(src, "tanh") * T.constant(4.0)
    onehots = [np.eye(shape[-1])[rng.integers(0, shape[-1], size=shape[:-1])] for _ in range(2)]
    loss = (ce(x, onehots[0]) + ce(x, onehots[1])) * T.constant(1.0 / 7)
    T.backward(loss)
    return [a.tobytes() for a in (loss.data, src.grad, x.grad)]


@pytest.mark.parametrize("shape", [(4, 5), (1, 3), (3, 1), (2, 3, 6)])
def test_cross_entropy_matches_the_chain_byte_for_byte(shape):
    assert _cross_entropy_run(T.cross_entropy, shape) == \
        _cross_entropy_run(cross_entropy_chain, shape)


def test_cross_entropy_builds_one_node_over_the_logits():
    x = T.parameter(np.ones((2, 3)))
    start = T.constant(0.0).id
    out = T.cross_entropy(x, np.eye(3)[[0, 2]])
    assert (out.op_kind, out.id, out.parents, out.shape) == ("cross_entropy", start + 1, (x,), ())


@pytest.mark.parametrize("x_shape, onehot_shape", [((2, 3), (2, 4)), ((2, 3), (3,)), ((), ())])
def test_cross_entropy_rejects_a_onehot_not_of_the_logits_shape(x_shape, onehot_shape):
    with pytest.raises(T.ShapeError, match="cross_entropy"):
        T.cross_entropy(T.parameter(np.ones(x_shape)), np.ones(onehot_shape))


def test_cross_entropy_grad_check():
    rng = np.random.default_rng(1)
    onehot = np.eye(4)[[3, 0, 1]]
    report = T.grad_check(lambda vs: T.cross_entropy(vs[0], onehot), [rng.normal(size=(3, 4))])
    assert report.max_rel_err < 1e-6


# -- fused FFN sublayer ------------------------------------------------------

def ffn_sublayer_chain(h, a, norm, first, second, nonlin, eps=1e-6):
    """The 20 elementary ops (and the norm's 4 constants) that
    ``T.ffn_sublayer`` fuses: the attention's residual add, the layer
    norm's 13, a matmul and an add, the nonlinearity, a matmul and an add,
    and the FFN's residual add."""
    total = h + a
    hidden = T.nonlinearity(affine_chain([(layer_norm_chain(total, *norm, eps), first[0])],
                                         first[1]), nonlin)
    return total + affine_chain([(hidden, second[0])], second[1])


def _ffn_run(sublayer, nonlin, lead, d=8, f=12):
    """Data of two FFN sublayers in a row, sharing their weights as a
    Transformer's positions share a layer's, and the gradients of every
    source under a weighted-sum loss; the first sublayer's input is an inner
    node that also feeds a node built before and one built after the
    sublayers, as a layer's input feeds its first layer norm."""
    rng = np.random.default_rng(len(lead) + f)
    srcs = [T.parameter(rng.normal(size=lead + (d,))) for _ in range(3)]
    params = [T.parameter(rng.normal(size=shape))
              for shape in ((d,), (d,), (d, f), (f,), (f, d), (d,))]
    norm, first, second = params[:2], params[2:4], params[4:]
    h = T.nonlinearity(srcs[0], "tanh") * T.constant(3.0)
    before = (h * h).sum()
    outs = [sublayer(h, srcs[1] * T.constant(0.5), norm, first, second, nonlin)]
    outs.append(sublayer(outs[0], srcs[2] * T.constant(0.5), norm, first, second, nonlin))
    T.backward(sum(((o * T.constant(rng.normal(size=o.shape))).sum() for o in outs),
                   before + (h * h).sum()))
    return [a.tobytes() for a in (*(o.data for o in outs), *(v.grad for v in srcs + params))]


def _fused_ffn(h, a, norm, first, second, nonlin):
    return T.ffn_sublayer(h, a, norm, first, second, nonlin, 1e-6)


@pytest.mark.parametrize("lead", [(3,), (2, 4)], ids=["B-d", "B-L-d"])
@pytest.mark.parametrize("nonlin", list(T.NONLINEARITIES))
def test_ffn_sublayer_matches_the_chain_byte_for_byte(nonlin, lead):
    assert _ffn_run(_fused_ffn, nonlin, lead) == _ffn_run(ffn_sublayer_chain, nonlin, lead)


def test_ffn_sublayer_builds_one_node_with_every_operand_as_parent():
    h, a = T.parameter(np.ones((2, 3))), T.parameter(np.ones((2, 3)))
    params = [T.parameter(np.ones(shape)) for shape in ((3,), (3,), (3, 5), (5,), (5, 3), (3,))]
    start = T.constant(0.0).id
    out = T.ffn_sublayer(h, a, params[:2], params[2:4], params[4:], "relu", 1e-6)
    assert (out.op_kind, out.id, out.shape) == ("ffn_sublayer", start + 1, (2, 3))
    assert out.parents == (h, a, *params)


@pytest.mark.parametrize("shapes", [
    [(2, 3), (2, 3), (4,), (3,), (3, 5), (5,), (5, 3), (3,)],    # a gain of another width
    [(2, 3), (2, 3), (3,), (3,), (4, 5), (5,), (5, 3), (3,)],    # W1 not of the input width
    [(2, 3), (2, 3), (3,), (3,), (3, 5), (4,), (5, 3), (3,)],    # b1 not of W1's width
    [(2, 3), (2, 3), (3,), (3,), (3, 5), (5,), (5, 4), (3,)],    # W2 not back to the width
    [(2, 3), (2, 3), (3,), (3,), (3, 5), (5,), (5, 3), (2, 3)],  # b2 not (d,)
    [(), (), (3,), (3,), (3, 5), (5,), (5, 3), (3,)],            # no width at all
    [(2, 3), (1, 3), (3,), (3,), (3, 5), (5,), (5, 3), (3,)],    # an output of another shape
])
def test_ffn_sublayer_rejects_operands_the_chain_would_not_combine(shapes):
    vs = [T.parameter(np.ones(shape)) for shape in shapes]
    with pytest.raises(T.ShapeError, match="ffn_sublayer"):
        T.ffn_sublayer(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:], "tanh", 1e-6)


@pytest.mark.parametrize("nonlin", list(T.NONLINEARITIES))
def test_ffn_sublayer_grad_check(nonlin):
    rng = np.random.default_rng(3)
    point = [rng.normal(size=shape)
             for shape in ((2, 3), (2, 3), (3,), (3,), (3, 4), (4,), (4, 3), (3,))]
    weights = T.constant(rng.normal(size=(2, 3)))
    report = T.grad_check(
        lambda vs: (T.ffn_sublayer(vs[0], vs[1], vs[2:4], vs[4:6], vs[6:], nonlin, 1e-6)
                    * weights).sum(), point)
    assert report.max_rel_err < 1e-6


# -- fused softmax attention -------------------------------------------------

HEADS = (1, 2, 4)


def split_chain(x, n_heads, rows=False):
    """The elementary nodes of a row's heads that ``T.split_row`` fuses,
    without the slice: x's n_heads splits (none at one head) and, with
    ``rows``, each head's reshape to (B, 1, dh); a list of the heads."""
    width = x.shape[-1] // n_heads
    heads = [x] if n_heads == 1 else [x.slice((Ellipsis, slice(i * width, (i + 1) * width)))
                                      for i in range(n_heads)]
    return [h.reshape((h.shape[0], 1, width)) for h in heads] if rows else heads


def _mix_chain(scores, values, scale):
    """The scale, softmax and value mix both attention chains end in."""
    if scale is not None:
        scores = scores * T.constant(scale)
    weights = T.softmax(scores)
    stacked = T.concat(values, axis=1)                      # (B, t, dv)
    b, t = weights.shape
    return T.matmul(weights.reshape((b, 1, t)), stacked).reshape((b, stacked.shape[-1]))


def attention_chain(q, keys, values, scale):
    """One head of one query's elementary nodes that ``T.attention`` fuses,
    2t + 6 (2t + 7 and a constant with the scale), as the parallel
    Transformer built them: a product and a row sum per key, then the
    scores' concat."""
    scores = T.concat([(q * k).sum(axis=-1, keepdims=True) for k in keys], axis=-1)
    return _mix_chain(scores, values, scale)


def cached_attention_chain(q, key_rows, values, scale):
    """One head of the elementary nodes that ``T.cached_attention`` fuses, 9
    (10 and a constant with the scale), as the cached step cells built them:
    the stacked keys scored in one broadcast product."""
    keys = T.concat(key_rows, axis=1)                       # (B, t, dh)
    b, _, dh = keys.shape
    scores = (q.reshape((b, 1, dh)) * keys).sum(axis=-1)
    return _mix_chain(scores, values, scale)


def heads_chain(per_head):
    """The all-heads chain around ``per_head``: q's splits, ``per_head`` on
    each head of q and of the rows (lists of per-head nodes), and the heads'
    concat (none at one head)."""
    def chain(q, keys, values, n_heads, scale):
        heads = [per_head(q_i, [k[i] for k in keys], [v[i] for v in values], scale)
                 for i, q_i in enumerate(split_chain(q, n_heads))]
        return heads[0] if n_heads == 1 else T.concat(heads, axis=-1)
    return chain


def stacked(rows, n_heads):
    """The (B, n_heads, t, dh) array whose [:, i, j] is head i of row j's
    data, for rows of shape (B, d) or (B, 1, d): what a caller of the
    attention kinds keeps."""
    return np.stack([r.data.reshape((r.shape[0], n_heads, -1)) for r in rows], axis=2)


def with_arrays(fused, n_heads=1):
    """``fused`` called on full-width rows and their stacked arrays."""
    return lambda q, keys, values, scale: fused(q, keys, values, stacked(keys, n_heads),
                                                stacked(values, n_heads), n_heads, scale)


def _fused_attend(fused):
    return lambda q, keys, values, n_heads, scale: with_arrays(fused, n_heads)(
        q, keys, values, scale)


# kind -> (fused, chain, the key shape for a (B, dh) query at one head)
ATTENTION_KINDS = {
    "cached_attention": (_fused_attend(T.cached_attention), heads_chain(cached_attention_chain),
                         lambda b, dh: (b, 1, dh)),
}


def _rows(fused, x, n_heads):
    """The rows of the (B, t, d) projection ``x`` as the cached route builds
    them: one ``T.split_row`` per position, taken whole from each step's
    projection (here a slice); or, for the chain, each row's elementary
    nodes, a list of its heads; every row reshaped to (B, 1, dh)."""
    row_slices = [x.slice((slice(None), j)) for j in range(x.shape[1])]
    if fused:
        return [T.split_row(r, n_heads, rows=True) for r in row_slices]
    return [split_chain(r, n_heads, rows=True) for r in row_slices]


def _attention_run(kind, fused, t, scale, n_heads, b=4, dh=8):
    """Data of two attention rows over shared keys and values, as queries of
    one layer share them: the first row attends over all t, the second over
    the first two at most.  The rows come from (B, t, d) projections, as the
    models build them with ``T.split_row`` or, for the chain, its elementary
    nodes.  Returns the bytes of both outputs and of the gradients of every
    source under a weighted-sum loss in which the first query and the keys
    also feed a node built after the rows.  With t = 5 the third and last
    key rows and the fourth value row repeat the first (beside a value or
    key that differs), so the first key row takes four gradients, three of
    them from one node, and the order in which a node adds into one parent
    shows: adding its key rows in the other order changes the bytes at
    every head count.  The whole-layer kind ``attention`` runs
    ``_layer_attention_run`` over t positions instead."""
    if kind == "attention":
        return _layer_attention_run(fused, t, scale, n_heads, b=b, dh=dh)
    d = n_heads * dh
    rng = np.random.default_rng(10 * t + (scale is None) + n_heads)
    srcs = [T.parameter(rng.normal(size=shape))
            for shape in ((b, d), (b, d), (b, t, d), (b, t, d))]
    qs = [T.nonlinearity(s, "tanh") * T.constant(3.0) for s in srcs[:2]]
    ks, vs = srcs[2] * T.constant(2.0), srcs[3] * T.constant(1.0)
    key_rows, value_rows = (_rows(fused, x, n_heads) for x in (ks, vs))
    if t == 5:
        key_rows[2], key_rows[4], value_rows[3] = key_rows[0], key_rows[0], value_rows[0]
    attend = ATTENTION_KINDS[kind][0 if fused else 1]
    outs = [attend(qs[0], key_rows, value_rows, n_heads, scale),
            attend(qs[1], key_rows[:2], value_rows[:2], n_heads, scale)]
    loss = sum(((out * T.constant(rng.normal(size=out.shape))).sum() for out in outs),
               (qs[0] * T.constant(rng.normal(size=(b, d)))).sum() + (ks * ks).sum())
    T.backward(loss)
    return [a.tobytes() for a in (*(out.data for out in outs), *(s.grad for s in srcs))]


@pytest.mark.parametrize("scale", [None, 0.35])
@pytest.mark.parametrize("t", [1, 2, 5])
@pytest.mark.parametrize("kind", ["attention", *ATTENTION_KINDS])
def test_attention_matches_the_chain_byte_for_byte(kind, t, scale):
    for n_heads in HEADS:
        assert _attention_run(kind, True, t, scale, n_heads) == \
            _attention_run(kind, False, t, scale, n_heads), n_heads


@pytest.mark.parametrize("kind", list(ATTENTION_KINDS))
def test_attention_builds_one_node_with_query_keys_and_values_as_parents(kind):
    q = T.parameter(np.ones((2, 4)))
    keys = [T.parameter(np.ones((2, 4))) for _ in range(3)]
    values = [T.parameter(np.ones((2, 6))) for _ in range(3)]
    start = T.constant(0.0).id
    out = ATTENTION_KINDS[kind][0](q, keys, values, 2, 0.5)
    assert (out.op_kind, out.id, out.shape) == (kind, start + 1, (2, 6))
    assert out.parents == (q, *keys, *values)


# q's shape, then (row count, stacked array shape) for the keys and values;
# the node is asked for one head
@pytest.mark.parametrize("q, keys, values", [
    ((2, 3), (0, (2, 1, 0, 3)), (0, (2, 1, 0, 3))),       # no key
    ((2, 3), (2, (2, 1, 2, 3)), (1, (2, 1, 1, 3))),       # a key without a value
    ((2, 3), (1, (2, 1, 1, 4)), (1, (2, 1, 1, 3))),       # keys of another width
    ((2, 3), (1, (2, 1, 1, 3)), (1, (3, 1, 1, 3))),       # values of another batch
    ((2, 3), (2, (2, 1, 1, 3)), (2, (2, 1, 2, 3))),       # fewer stacked keys than rows
    ((2, 3), (1, (2, 1, 1, 3)), (1, (2, 1, 3))),          # values not stacked rows
    ((3,), (1, (3, 1, 1, 3)), (1, (3, 1, 1, 3))),         # a query without a batch axis
    ((2, 4), (1, (2, 2, 1, 2)), (1, (2, 2, 1, 2))),       # arrays of another head count
])
@pytest.mark.parametrize("kind", list(ATTENTION_KINDS))
def test_attention_rejects_operands_the_chain_would_not_mix(kind, q, keys, values):
    """Only the stacked arrays' shapes are checked, against the query, the
    head count and the row counts; the rows are not read."""
    fused = getattr(T, kind)
    with pytest.raises(T.ShapeError, match=kind):
        fused(T.parameter(np.ones(q)), [T.parameter(np.ones((2, 3)))] * keys[0],
              [T.parameter(np.ones((2, 3)))] * values[0], np.ones(keys[1]),
              np.ones(values[1]), 1, None)


@pytest.mark.parametrize("kind", list(ATTENTION_KINDS))
def test_attention_grad_check(kind):
    fused = ATTENTION_KINDS[kind][0]
    rng = np.random.default_rng(2)
    t, b = 3, 2
    for n_heads in HEADS:
        d = 2 * n_heads
        point = [rng.normal(size=(b, d)) for _ in range(2 * t + 1)]
        weights = T.constant(rng.normal(size=(b, d)))
        report = T.grad_check(
            lambda vs: (fused(vs[0], vs[1:t + 1], vs[t + 1:], n_heads, 0.7) * weights).sum(),
            point)
        assert report.max_rel_err < 1e-6, n_heads


# -- whole-layer softmax attention -------------------------------------------

def layer_attention_chain(q_all, k_all, v_all, n_heads, scale, queries):
    """The elementary nodes that ``T.attention`` fuses, as the parallel
    Transformer built them one query at a time: each key and value row up
    to the last query sliced out of k_all and v_all (B, L, d) and split
    into its heads, each value head reshaped to (B, 1, dh); then per query
    q's row slice and its heads' attention chains over the rows up to its
    own.  Returns the queries' outputs, a list."""
    rows = range(queries[-1] + 1)
    keys = [split_chain(k_all.slice((slice(None), j)), n_heads) for j in rows]
    values = [split_chain(v_all.slice((slice(None), j)), n_heads, rows=True) for j in rows]
    return [heads_chain(attention_chain)(q_all.slice((slice(None), t)), keys[:t + 1],
                                         values[:t + 1], n_heads, scale) for t in queries]


def _layer_attention_run(fused, length, scale, n_heads, queries=None, b=3, dh=4):
    """Data of one layer's attention over ``length`` positions, read at
    ``queries`` (every position if None), fused or as its elementary chain,
    and the bytes of the gradients of q's, k's and v's sources under a
    weighted-sum loss in which q and k also feed a node built after the
    attention, so the order in which the node adds into them shows."""
    d = n_heads * dh
    rng = np.random.default_rng(10 * length + (scale is None) + n_heads)
    queries = list(range(length)) if queries is None else queries
    srcs = [T.parameter(rng.normal(size=(b, length, d))) for _ in range(3)]
    q_all = T.nonlinearity(srcs[0], "tanh") * T.constant(3.0)
    k_all, v_all = srcs[1] * T.constant(2.0), srcs[2] * T.constant(1.0)
    weights = rng.normal(size=(len(queries), b, d))
    if fused:
        out = T.attention(q_all, k_all, v_all, n_heads, scale, queries)
        outs, terms = list(out.data), [(out * T.constant(weights)).sum()]
    else:
        nodes = layer_attention_chain(q_all, k_all, v_all, n_heads, scale, queries)
        outs = [node.data for node in nodes]
        terms = [(node * T.constant(w)).sum() for node, w in zip(nodes, weights)]
    terms += [(q_all * T.constant(rng.normal(size=q_all.shape))).sum(), (k_all * k_all).sum()]
    T.backward(sum(terms[1:], terms[0]))
    return [a.tobytes() for a in (*outs, *(src.grad for src in srcs))]


@pytest.mark.parametrize("scale", [None, 0.35])
@pytest.mark.parametrize("length, queries", [
    (1, None), (3, [2]), (5, [0, 3]), (9, None), (9, [1, 4, 8]), (17, None), (17, [0, 8, 16]),
    (17, [3, 9])])
def test_layer_attention_matches_the_chain_byte_for_byte(length, queries, scale):
    """Every query of a layer, or some, over as many as 17 keys: past
    numpy's 8-element pairwise-sum block, where a softmax sum or value mix
    over more keys than the query's would add in another order.  Heads of
    width 2 mix strided value rows in another order than the chain's
    stacked ones, as the parallel route once did."""
    for n_heads in HEADS:
        for dh in (2, 4):
            assert _layer_attention_run(True, length, scale, n_heads, queries, dh=dh) == \
                _layer_attention_run(False, length, scale, n_heads, queries, dh=dh), (n_heads, dh)


def test_layer_attention_keeps_the_sign_of_a_zero_gradient():
    """A query over its one key gives the key and the query gradients of
    exactly zero, here -0.0.  Added to another reader's -0.0 they stay
    -0.0, as the chain's rows added them; sums started from +0.0 would
    turn them to +0.0."""
    def run(fused):
        q_all, k_all, v_all = (T.parameter(np.array([[[-1.0, -2.0]]])) for _ in range(3))
        if fused:
            out = T.attention(q_all, k_all, v_all, 1, 0.5, [0])
        else:
            out = layer_attention_chain(q_all, k_all, v_all, 1, 0.5, [0])[0]
        terms = [(x * T.constant(np.full(x.shape, -0.0))).sum() for x in (out, q_all, k_all, v_all)]
        T.backward(sum(terms[1:], terms[0]))
        return [x.grad for x in (q_all, k_all, v_all)]

    fused, chain = run(True), run(False)
    assert [g.tobytes() for g in fused] == [g.tobytes() for g in chain]
    assert np.signbit(fused[0]).all() and np.signbit(fused[1]).all()


def test_layer_attention_builds_one_node_with_the_projections_as_parents():
    q, k = T.parameter(np.ones((2, 5, 4))), T.parameter(np.ones((2, 5, 4)))
    v = T.parameter(np.ones((2, 5, 6)))
    start = T.constant(0.0).id
    out = T.attention(q, k, v, 2, 0.5, [1, 4])
    assert (out.op_kind, out.id, out.shape) == ("attention", start + 1, (2, 2, 6))
    assert out.parents == (q, k, v)


@pytest.mark.parametrize("q, k, v, n_heads, queries", [
    ((2, 3, 4), (2, 3, 4), (2, 3, 4), 1, []),          # no query
    ((2, 3, 4), (2, 3, 4), (2, 3, 4), 1, [3]),         # a query past the end
    ((2, 3, 4), (2, 3, 4), (2, 3, 4), 1, [-1]),        # a negative query
    ((2, 3, 4), (2, 3, 4), (2, 3, 4), 1, [2, 0]),      # queries out of order
    ((2, 3, 4), (2, 3, 4), (2, 3, 4), 1, [1, 1]),      # a repeated query
    ((2, 3, 4), (2, 3, 4), (2, 3, 4), 3, [0]),         # a width not split evenly
    ((2, 3, 4), (2, 3, 2), (2, 3, 4), 1, [0]),         # keys of another width
    ((2, 3, 4), (2, 3, 4), (3, 3, 4), 1, [0]),         # values of another batch
    ((2, 3, 4), (2, 3, 4), (2, 2, 4), 1, [0]),         # values of another length
    ((2, 3, 4), (2, 3, 4), (2, 3, 3), 2, [0]),         # values not split evenly
    ((3, 4), (3, 4), (3, 4), 1, [0]),                  # rows, not sequences
])
def test_layer_attention_rejects_operands_the_chain_would_not_mix(q, k, v, n_heads, queries):
    with pytest.raises(T.ShapeError, match="attention"):
        T.attention(*(T.parameter(np.ones(shape)) for shape in (q, k, v)), n_heads, None,
                    queries)


def test_layer_attention_grad_check():
    rng = np.random.default_rng(2)
    for n_heads in HEADS:
        d = 2 * n_heads
        point = [rng.normal(size=(2, 3, d)) for _ in range(3)]
        weights = T.constant(rng.normal(size=(2, 2, d)))
        report = T.grad_check(
            lambda vs: (T.attention(*vs, n_heads, 0.7, [0, 2]) * weights).sum(), point)
        assert report.max_rel_err < 1e-6, n_heads


# -- the parallel Transformer's stacks ---------------------------------------

def test_position_rows_and_stack_rows_move_rows_between_layouts():
    x = T.parameter(np.arange(24.0).reshape((2, 3, 4)))
    rows = T.position_rows(x)
    back = T.stack_rows(rows)
    assert rows.shape == (3, 2, 4) and rows.data.flags.c_contiguous
    assert all(np.array_equal(rows.data[t], x.data[:, t]) for t in range(3))
    assert back.data.tobytes() == x.data.tobytes() and back.data.flags.c_contiguous
    with pytest.raises(T.ShapeError, match="position_rows"):
        T.position_rows(T.parameter(np.ones((2, 3))))
    with pytest.raises(T.ShapeError, match="stack_rows"):
        T.stack_rows(T.parameter(np.ones((2, 3))))


def test_pick_keeps_every_rows_gradient_bytes():
    """A row's gradient is its reader's, zero signs included, and a row no
    pick reaches holds -0.0, which adds nothing to an earlier gradient."""
    stack = T.parameter(np.ones((3, 2, 2)))
    first, last = T.pick(stack, 0), T.pick(stack, [1, 2])
    assert first.shape == (2, 2) and last.shape == (2, 2, 2)
    T.backward((first * T.constant([[-0.0, 2.0], [0.0, -1.0]])).sum())
    g = stack.grad
    assert g[0].tobytes() == np.array([[-0.0, 2.0], [0.0, -1.0]]).tobytes()
    assert np.signbit(g[1:]).all() and not g[1:].any()
    with pytest.raises(T.ShapeError, match="pick"):
        T.pick(stack, 3)


def transformer_layers(x, p, n_heads, scale, positions, fused, nonlin="tanh"):
    """The parallel Transformer's layers and readout over its embedded
    sequence ``x`` (B, L, d), with residuals and the parameter nodes ``p``
    named as ``init_params`` names them; returns the logits at
    ``positions``, in increasing order.  Fused, as ``transformer_forward``
    builds them: the rows' stacks, per layer a layer norm, three
    projections, one attention and one stacked FFN node, one stacked
    readout and a pick per position.  Else as the elementary per-query
    chain those stand for, each position's row a node of its own, its last
    layer run at ``positions`` only."""
    length = x.shape[1]
    kept = sorted(positions)
    n_layers = len({name.split(".")[0] for name in p if name[0] == "l"})
    hs = T.position_rows(x) if fused else [x.slice((slice(None), t)) for t in range(length)]
    for layer in range(n_layers):
        pre = f"l{layer}."
        queries = kept if layer == n_layers - 1 else list(range(length))
        norm = (p[pre + "ln2_g"], p[pre + "ln2_b"])
        first, second = ((p[f"{pre}ffn.w{i}"], p[f"{pre}ffn.b{i}"]) for i in (1, 2))
        if fused:
            normed = T.layer_norm(T.stack_rows(hs), p[pre + "ln1_g"], p[pre + "ln1_b"], 1e-6)
        else:
            stacked = T.concat([h.reshape((h.shape[0], 1, h.shape[1])) for h in hs], axis=1)
            normed = layer_norm_chain(stacked, p[pre + "ln1_g"], p[pre + "ln1_b"])
        q_all, k_all, v_all = (T.matmul(normed, p[pre + w]) for w in ("wq", "wk", "wv"))
        if fused:
            attn = T.attention(q_all, k_all, v_all, n_heads, scale, queries)
            rows = hs if len(queries) == length else T.pick(hs, queries)
            hs = T.ffn_sublayer(rows, attn, norm, first, second, nonlin, 1e-6, stacked=True)
        else:
            attn = layer_attention_chain(q_all, k_all, v_all, n_heads, scale, queries)
            hs = [ffn_sublayer_chain(hs[t], a, norm, first, second, nonlin)
                  for t, a in zip(queries, attn)]
    if fused:
        logits = T.affine([(hs, p["out_w"])], p["out_b"], stacked=True)
        return [T.pick(logits, i) for i in range(len(kept))]
    return [affine_chain([(h, p["out_w"])], p["out_b"]) for h in hs]


def _transformer_run(fused, length, n_heads, scale, positions, b=2, d=8, n_layers=2):
    """Data of ``transformer_layers``' logits over an inner node's sequence
    and the bytes of the gradients of its source and every parameter under
    a weighted-sum loss."""
    rng = np.random.default_rng(length + n_heads)
    names = ["out_w", "out_b"] + [f"l{i}.{name}" for i in range(n_layers) for name in (
        "ln1_g", "ln1_b", "wq", "wk", "wv", "ln2_g", "ln2_b", "ffn.w1", "ffn.b1", "ffn.w2",
        "ffn.b2")]
    shapes = {"out_w": (d, 5), "out_b": (5,), "wq": (d, d), "wk": (d, d), "wv": (d, d),
              "ffn.w1": (d, 2 * d), "ffn.b1": (2 * d,), "ffn.w2": (2 * d, d)}
    p = {name: T.parameter(rng.normal(size=shapes.get(name.split(".", 1)[-1], (d,))))
         for name in names}
    src = T.parameter(rng.normal(size=(b, length, d)))
    logits = transformer_layers(T.nonlinearity(src, "tanh") * T.constant(2.0), p, n_heads,
                                scale, positions, fused)
    terms = [(lg * T.constant(rng.normal(size=lg.shape))).sum() for lg in logits]
    T.backward(sum(terms[1:], terms[0]))
    return [a.tobytes() for a in (*(lg.data for lg in logits), src.grad,
                                  *(p[name].grad for name in names))]


@pytest.mark.parametrize("length, positions", [(3, [0, 1, 2]), (9, [8]), (12, [2, 5, 11])])
def test_transformer_layers_match_the_chain_byte_for_byte(length, positions):
    for n_heads in HEADS[:2]:
        assert _transformer_run(True, length, n_heads, 0.35, positions) == \
            _transformer_run(False, length, n_heads, 0.35, positions), n_heads


# -- stacked embedding rows ---------------------------------------------------

def embed_rows_chain(table, ids, positions=None):
    """The per-position nodes that ``T.embed_rows`` fuses: each position's
    gather and, with ``positions``, the add of its row; a list of rows."""
    rows = [T.take_rows(table, ids[:, t]) for t in range(ids.shape[1])]
    return rows if positions is None else [r + T.constant(p) for r, p in zip(rows, positions)]


def _embed_run(fused, positional=True, length=11):
    """Data of the embedded rows of a batch of 3 sequences of ``length``
    tokens, whose ids repeat within and across positions, and the table's
    gradient under a weighted-sum loss; the table is an inner node that also
    feeds a node built after the rows."""
    rng = np.random.default_rng(length)
    src = T.parameter(rng.normal(size=(5, 4)))
    table = src * T.constant(2.0)
    ids = rng.integers(0, 5, size=(3, length))
    positions = rng.normal(size=(length, 4)) if positional else None
    if fused:
        stack = T.embed_rows(table, ids, positions)
        rows = [T.pick(stack, t) for t in range(length)]
    else:
        rows = embed_rows_chain(table, ids, positions)
    T.backward(_weighted_loss(rows + [table * table], rng, False))
    return [x.tobytes() for x in (*(r.data for r in rows), src.grad)]


@pytest.mark.parametrize("length", [1, 9, 17])
@pytest.mark.parametrize("positional", [False, True])
def test_embed_rows_match_the_chain_byte_for_byte(positional, length):
    assert _embed_run(True, positional, length) == _embed_run(False, positional, length)


def test_embed_rows_reject_ids_or_positions_of_another_shape():
    table = T.parameter(np.ones((5, 4)))
    for ids, positions in ((np.zeros(3, dtype=int), None), (np.zeros((2, 3), dtype=int),
                                                            np.ones((2, 4))),
                           (np.full((2, 3), 5), None), (np.zeros((2, 3)), None)):
        with pytest.raises(T.ShapeError, match="embed_rows"):
            T.embed_rows(table, ids, positions)


# -- the recurrent state scans -------------------------------------------------

def rwkv_decay_chain(w_raw):
    """The 3 elementary ops (and a constant) of RWKV's decay."""
    return T.exp(-T.nonlinearity(w_raw, "elu_plus_one"))


def rwkv_output_chain(u, k, v, a, b):
    """The 6 elementary ops of RWKV's read-out."""
    bonus = T.exp(u + k)
    return (a + bonus * v) / (b + bonus)


def decayed_sum_chain(z, a, x, y=None):
    return z * a + (x if y is None else x * y)


def rwkv_update_chain(w_raw, ab, k, v):
    """RWKV's state after a token from ``ab``, the state before it (None
    while empty): e^k v and e^k, or the decay and the two decayed sums."""
    ek = T.exp(k)
    if ab is None:
        return ek * v, ek
    z = rwkv_decay_chain(w_raw)
    return decayed_sum_chain(z, ab[0], ek, v), decayed_sum_chain(z, ab[1], ek)


def rwkv_scan_chain(w_raw, u, k, v, state, queries):
    """The elementary chain that ``T.rwkv_scan`` fuses, one token at a time
    over the rows of k and v (n, B, d), each a pick of its stack, which
    stands for no op: per token its read-out if it is one of ``queries``,
    then the update after it.  ``state`` is an earlier chunk's (a, b), or
    None.  Returns (the read-outs, the state, the last update's operands:
    the state before it or None, and the last k and v rows)."""
    ab, outs = state, []
    for t in range(k.shape[0]):
        k_t, v_t = T.pick(k, t), T.pick(v, t)
        if t in queries:
            outs.append(v_t if ab is None else rwkv_output_chain(u, k_t, v_t, *ab))
        before, ab = ab, rwkv_update_chain(w_raw, ab, k_t, v_t)
    return outs, ab, (before, k_t, v_t)


def outer_update_chain(a, k, v):
    """One head of the elementary ops of a linear-attention update: 3, or
    4 with the state ``a`` (B, dh, dv)."""
    (batch, dh), dv = k.shape, v.shape[-1]
    outer = T.matmul(k.reshape((batch, dh, 1)), v.reshape((batch, 1, dv)))
    return outer if a is None else a + outer


def linear_readout_chain(q, a, b):
    """One head of the 6 elementary ops of a linear-attention read-out."""
    batch, dh = q.shape
    num = T.matmul(q.reshape((batch, 1, dh)), a).reshape((batch, a.shape[-1]))
    return num / (q * b).sum(axis=-1, keepdims=True)


def linear_step_chain(ab, q, k, v, n_heads):
    """One linear-attention step as elementary nodes: q (unless None), k
    and v split into heads, per head the state's update, b + k and the
    read-out, and the heads' concat; ``ab`` is a list of per-head (a, b).
    Returns (the read-out or None, the state)."""
    outs, states = [], []
    qs = [None] * n_heads if q is None else split_chain(q, n_heads)
    for i, (q_i, k_i, v_i) in enumerate(zip(qs, split_chain(k, n_heads),
                                            split_chain(v, n_heads))):
        a, b = (None, None) if ab is None else ab[i]
        a = outer_update_chain(a, k_i, v_i)
        b = k_i if b is None else b + k_i
        if q_i is not None:
            outs.append(linear_readout_chain(q_i, a, b))
        states.append((a, b))
    out = None if q is None else outs[0] if n_heads == 1 else T.concat(outs, axis=-1)
    return out, states


def linear_scan_chain(q, k, v, state, queries, n_heads, feature_map):
    """The elementary chain that ``T.linear_scan`` fuses, one token at a
    time over the rows of k and v (n, B, d) and of q, one per query, each a
    pick of its stack: per token the feature map of k and the update of
    every head's state, and per query the feature map of q and the
    read-out.  ``state`` is an earlier chunk's list of per-head (a, b).
    Returns (the read-outs, the state)."""
    outs = []
    for t in range(k.shape[0]):
        q_t = (T.nonlinearity(T.pick(q, list(queries).index(t)), feature_map)
               if t in queries else None)
        out, state = linear_step_chain(state, q_t, T.nonlinearity(T.pick(k, t), feature_map),
                                       T.pick(v, t), n_heads)
        if out is not None:
            outs.append(out)
    return outs, state


def _weighted_loss(terms, rng, zero):
    """The sum of every term weighted by normal draws, or by -0.0 with
    ``zero``, where every gradient is a zero whose sign shows how it was
    summed."""
    sums = [(x * T.constant(np.full(x.shape, -0.0) if zero else rng.normal(size=x.shape))).sum()
            for x in terms]
    return sum(sums[1:], sums[0])


def _rwkv_scan_run(fused, chunks, zero=False, batch=3, d=4):
    """Data of RWKV's recurrence over consecutive chunks of tokens, each
    (length, queries), each chunk resuming the state the one before left,
    built by ``T.rwkv_scan`` or as its chain, and the gradients of every
    source under a weighted-sum loss of the read-outs and the last state.
    Each chunk's k and v are inner stacks that also feed a node built after
    the scans, and u broadcasts over the batch."""
    rng = np.random.default_rng(d + len(chunks))
    w_raw, u = T.parameter(rng.normal(size=d)), T.parameter(rng.normal(size=d))
    srcs = [T.parameter(rng.normal(size=(n, batch, d))) for n, _ in chunks for _ in range(2)]
    state, outs, later = None, [], []
    for i, (_, queries) in enumerate(chunks):
        k = T.nonlinearity(srcs[2 * i], "tanh") * T.constant(2.0)
        v = srcs[2 * i + 1] * T.constant(1.5)
        if fused:
            state = T.rwkv_scan(w_raw, u, k, v, state, queries)
            outs += [T.pick(state, j) for j in range(len(queries))]
        else:
            read, state, _ = rwkv_scan_chain(w_raw, u, k, v, state, queries)
            outs += read
        later.append(k * v)
    if fused:
        last = [T.pick(state, j) for j in range(len(chunks[-1][1]), state.shape[0])]
    else:
        last = list(state)
    T.backward(_weighted_loss(outs + last + later, rng, zero))
    return [x.tobytes() for x in (*(o.data for o in outs + last),
                                  *(s.grad for s in [w_raw, u, *srcs]))]


def _linear_scan_run(fused, chunks, n_heads, feature_map="elu_plus_one", zero=False, shift=0.0,
                     batch=3, dh=4):
    """Data of the linear Transformer's recurrence over consecutive chunks
    of tokens, each (length, queries), each chunk resuming the state the one
    before left, over ``n_heads`` heads, built by ``T.linear_scan`` or as its
    chain, and the gradients of every source under a weighted-sum loss of
    the read-outs and the last state.  Each chunk's q, k and v are inner
    stacks, before the feature map, shifted by ``shift``, and k and v also
    feed a node built after the scans."""
    rng = np.random.default_rng(dh + n_heads + len(chunks))
    d = n_heads * dh
    srcs = [T.parameter(rng.normal(size=(len(queries) if j == 0 else n, batch, d)))
            for n, queries in chunks for j in range(3)]
    state, outs, later = None, [], []
    for i, (_, queries) in enumerate(chunks):
        q, k = (T.nonlinearity(s, "tanh") * T.constant(2.0) + T.constant(shift)
                for s in srcs[3 * i:3 * i + 2])
        v = srcs[3 * i + 2] * T.constant(1.5)
        if fused:
            state = T.linear_scan(q, k, v, state, queries, n_heads, feature_map)
            outs += [T.pick(state, j) for j in range(len(queries))]
        else:
            read, state = linear_scan_chain(q, k, v, state, queries, n_heads, feature_map)
            outs += read
        later.append(k * v)
    weights = [rng.normal(size=(batch, n_heads, dh, dh)), rng.normal(size=(batch, d))]
    if zero:
        weights = [np.full(w.shape, -0.0) for w in weights]
    if fused:
        nq = len(chunks[-1][1])
        a_rows, b_row = T.pick(state, list(range(nq, nq + dh))), T.pick(state, nq + dh)
        terms = [(a_rows * T.constant(T._pack(weights[0], d))).sum(),
                 (b_row * T.constant(weights[1])).sum()]
        last = [T._unpack(a_rows.data, weights[0].shape), b_row.data]
    else:
        terms = [(x * T.constant(w)).sum() for i, (a, b) in enumerate(state)
                 for x, w in ((a, weights[0][:, i]),
                              (b, np.split(weights[1], n_heads, axis=-1)[i]))]
        last = [np.stack([a.data for a, _ in state], axis=1),
                np.concatenate([b.data for _, b in state], axis=-1)]
    T.backward(_weighted_loss(outs + later, rng, zero) + sum(terms[1:], terms[0]))
    return [x.tobytes() for x in (*(o.data for o in outs), *last, *(s.grad for s in srcs))]


# case -> consecutive chunks of (length, queries): every token read, some,
# the first token read with no state before it, one token alone, past
# numpy's 8-element pairwise block, and chunks resumed after chunks of one
# and more tokens
SCAN_CHUNKS = {
    "every-token": [(5, range(5))],
    "some-queries": [(6, (1, 4))],
    "first-token-read": [(4, (0, 3))],
    "one-token": [(1, (0,))],
    "long": [(17, range(0, 17, 2))],
    "resumed": [(3, (0, 2)), (4, (0, 1, 3))],
    "after-one-token": [(1, (0,)), (3, (1, 2))],
    "steps": [(1, (0,))] * 4,
}


@pytest.mark.parametrize("zero", [False, True], ids=["weighted", "zero-signs"])
@pytest.mark.parametrize("case", list(SCAN_CHUNKS))
def test_rwkv_scan_matches_the_chain_byte_for_byte(case, zero):
    chunks = SCAN_CHUNKS[case]
    assert _rwkv_scan_run(True, chunks, zero) == _rwkv_scan_run(False, chunks, zero)


def _unread_state_grads(scan, fused, chunks):
    """The gradients of every source of the ``scan`` ("rwkv" or "linear",
    at two heads) under -0.0 weights on the read-outs alone, over chunks of
    (length, queries) that resume each other, the last chunk's state read
    by nothing."""
    rng = np.random.default_rng(5)
    srcs, state, outs = [], None, []
    for n, queries in chunks:
        if scan == "rwkv":
            if not srcs:
                srcs = [T.parameter(rng.normal(size=4)) for _ in range(2)]
            ops = [*srcs[:2], *(T.parameter(rng.normal(size=(n, 3, 4))) for _ in range(2))]
            srcs += ops[2:]
        else:
            ops = [T.parameter(rng.normal(size=(m, 3, 4))) for m in (len(queries), n, n)]
            srcs += ops
        if fused:
            state = (T.rwkv_scan(*ops, state, queries) if scan == "rwkv" else
                     T.linear_scan(*ops, state, queries, 2, "elu_plus_one"))
            outs += [T.pick(state, j) for j in range(len(queries))]
        else:
            read, state, *_ = (rwkv_scan_chain(*ops, state, queries) if scan == "rwkv" else
                               linear_scan_chain(*ops, state, queries, 2, "elu_plus_one"))
            outs += read
    T.backward(_weighted_loss(outs, rng, True))
    return [x.grad.tobytes() for x in srcs]


@pytest.mark.parametrize("chunks", [[(5, (1, 2))], [(3, (0, 2)), (5, (0, 1))]],
                         ids=["one-chunk", "resumed"])
@pytest.mark.parametrize("scan", ["rwkv", "linear"])
def test_a_scan_runs_no_update_that_no_reader_reached(scan, chunks):
    """The chain built every token's update, but those after the last
    read-out only a reader of the state reached.  From the -0.0 gradient
    of a state nothing read, their backward would add +0.0 into k and v
    rows that nothing else reached, where a factor is negative, and into
    w."""
    assert _unread_state_grads(scan, True, chunks) == _unread_state_grads(scan, False, chunks)


@pytest.mark.parametrize("zero", [False, True], ids=["weighted", "zero-signs"])
@pytest.mark.parametrize("case", list(SCAN_CHUNKS))
def test_linear_scan_matches_the_chain_byte_for_byte(case, zero):
    chunks = SCAN_CHUNKS[case]
    for n_heads in HEADS:
        assert _linear_scan_run(True, chunks, n_heads, zero=zero) == \
            _linear_scan_run(False, chunks, n_heads, zero=zero), n_heads


@pytest.mark.parametrize("feature_map", sorted(T.NONLINEARITIES))
def test_linear_scan_matches_the_chain_under_every_feature_map(feature_map):
    """Shifted past relu's zeros, which would leave a head's denominator 0."""
    chunks = SCAN_CHUNKS["resumed"]
    assert _linear_scan_run(True, chunks, 2, feature_map, shift=2.5) == \
        _linear_scan_run(False, chunks, 2, feature_map, shift=2.5)


def _rwkv_scan(w, u, k, v):
    return T.rwkv_scan(w, u, k, v, None, (0, 2))


def _rwkv_resumed(w, u, k, v, k2, v2):
    """A scan of two tokens, then one of three that resumes its state."""
    return T.rwkv_scan(w, u, k2, v2, T.rwkv_scan(w, u, k, v, None, (1,)), (0, 2))


def _linear_scan(n_heads):
    return lambda q, k, v: T.linear_scan(q, k, v, None, (1, 2), n_heads, "elu_plus_one")


def _linear_resumed(q, k, v, q2, k2, v2):
    first = T.linear_scan(q, k, v, None, (1,), 2, "relu")
    return T.linear_scan(q2, k2, v2, first, (0, 2), 2, "relu")


# kind -> (build it over these parameters, their shapes)
SCAN_KINDS = {
    "rwkv_scan": (_rwkv_scan, [(4,), (4,), (3, 2, 4), (3, 2, 4)]),
    "rwkv_scan-resumed": (_rwkv_resumed, [(4,), (4,), (2, 2, 4), (2, 2, 4), (3, 2, 4),
                                          (3, 2, 4)]),
    "linear_scan": (_linear_scan(1), [(2, 2, 3), (3, 2, 3), (3, 2, 3)]),
    "linear_scan-2-heads": (_linear_scan(2), [(2, 2, 4), (3, 2, 4), (3, 2, 4)]),
    "linear_scan-resumed": (_linear_resumed, [(1, 2, 4), (2, 2, 4), (2, 2, 4), (2, 2, 4),
                                              (3, 2, 4), (3, 2, 4)]),
}


@pytest.mark.parametrize("kind", list(SCAN_KINDS))
def test_scan_kinds_build_one_node_over_their_operands(kind):
    build, shapes = SCAN_KINDS[kind]
    parents = [T.parameter(np.ones(shape)) for shape in shapes]
    start = T.constant(0.0).id
    out = build(*parents)
    resumed = kind.endswith("resumed")
    assert out.op_kind == kind.split("-")[0] and out.id == start + 1 + resumed
    own = out.parents[:-1] if resumed else out.parents
    assert all(any(p is x for x in parents) for p in own)
    assert not resumed or out.parents[-1].op_kind == out.op_kind


@pytest.mark.parametrize("picked", [False, True], ids=["whole", "pick-and-whole"])
@pytest.mark.parametrize("kind", list(SCAN_KINDS))
def test_scan_kinds_grad_check(kind, picked):
    """Read as a whole, and also through a pick of the first read-out,
    which notes the rows it reads: the whole reader, which notes none,
    still reaches the state rows."""
    build, shapes = SCAN_KINDS[kind]
    rng = np.random.default_rng(len(shapes))
    # positive operands keep the rwkv and linear denominators away from 0
    point = [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]
    weights = T.constant(rng.normal(size=build(*map(T.constant, point)).shape))

    def loss(vs):
        out = build(*vs)
        return (T.pick(out, 0).sum() if picked else T.constant(0.0)) + (out * weights).sum()

    assert T.grad_check(loss, point).max_rel_err < 1e-6


@pytest.mark.parametrize("kind, shapes, queries", [
    ("rwkv_scan", [(4,), (4,), (3, 2, 4), (3, 2, 3)], (0,)),      # a value of another width
    ("rwkv_scan", [(3,), (4,), (3, 2, 4), (3, 2, 4)], (0,)),      # a decay of another width
    ("rwkv_scan", [(4,), (4,), (2, 4), (2, 4)], (0,)),            # no token axis
    ("rwkv_scan", [(4,), (4,), (3, 2, 4), (3, 2, 4)], (3,)),      # a query past the chunk
    ("rwkv_scan", [(4,), (4,), (3, 2, 4), (3, 2, 4)], (2, 1)),    # queries out of order
    ("rwkv_scan", [(4,), (4,), (3, 2, 4), (3, 2, 4)], ()),        # no query
    ("linear_scan", [(1, 2, 4), (3, 2, 4), (3, 3, 4)], (0,)),     # values of another batch
    ("linear_scan", [(2, 2, 4), (3, 2, 4), (3, 2, 4)], (0,)),     # a query row too many
    ("linear_scan", [(1, 2, 3), (3, 2, 4), (3, 2, 4)], (0,)),     # a query of another width
    ("linear_scan", [(1, 2, 4), (3, 2, 4), (3, 2, 4)], (1, 1)),   # a query twice
])
def test_scan_kinds_reject_operands_the_chain_would_not_combine(kind, shapes, queries):
    operands = [T.parameter(np.ones(s)) for s in shapes]
    args = (None, queries) + ((1, "relu") if kind == "linear_scan" else ())
    with pytest.raises(T.ShapeError, match=kind):
        getattr(T, kind)(*operands, *args)


def test_scans_reject_a_state_of_another_kind_or_shape():
    ones = [T.parameter(np.ones(shape)) for shape in ((4,), (4,), (2, 2, 4), (2, 2, 4))]
    rwkv = T.rwkv_scan(*ones, None, (1,))
    linear = T.linear_scan(ones[2], ones[2], ones[3], None, (0, 1), 2, "relu")
    with pytest.raises(T.ShapeError, match="linear_scan"):
        T.linear_scan(ones[2], ones[2], ones[3], rwkv, (0, 1), 2, "relu")
    with pytest.raises(T.ShapeError, match="linear_scan"):
        T.linear_scan(ones[2], ones[2], ones[3], linear, (0, 1), 1, "relu")   # other heads
    wide = T.parameter(np.ones((2, 2, 8)))
    with pytest.raises(T.ShapeError, match="rwkv_scan"):
        T.rwkv_scan(T.parameter(np.ones(8)), T.parameter(np.ones(8)), wide, wide, rwkv, (0,))
    assert linear.shape == (2 + 2 + 1, 2, 4)


def test_linear_scan_rejects_a_width_not_split_evenly():
    x = T.parameter(np.ones((2, 2, 3)))
    with pytest.raises(T.ShapeError, match="linear_scan"):
        T.linear_scan(x, x, x, None, (0, 1), 2, "relu")


def _attention_builders(kind, n_heads):
    """``kind`` and its chain over the flat operands q, keys..., values...,
    full-width rows, with scale 2; the chain splits every row itself."""
    def fused(q, *kv):
        half = len(kv) // 2
        return with_arrays(getattr(T, kind), n_heads)(q, kv[:half], kv[half:], 2.0)

    def chain(q, *kv):
        half = len(kv) // 2
        return heads_chain(cached_attention_chain)(
            q, [split_chain(k, n_heads, kind == "cached_attention") for k in kv[:half]],
            [split_chain(v, n_heads, rows=True) for v in kv[half:]], n_heads, 2.0)
    return fused, chain


# (case id, q, keys, values, whether the chain raises) under scale 2
ATTENTION_OVERFLOWS = [
    ("product", [[1e200]], [[[1e200]]], [[[[1.0]]]], True),
    # a score of -inf gets weight 0, so only the scores' check sees it
    ("negative-product", [[1e200]], [[[-1e200]], [[1.0]]], [[[[1.0]]], [[[2.0]]]], True),
    ("score-sum", [[1e308, 1e308]], [[[1.0, 1.0]]], [[[[1.0, 1.0]]]], True),
    ("scale", [[1e308]], [[[1.0]]], [[[[1.0]]]], True),
    # scores [0, -3] weigh two values at the float64 limit by 1 + 2^-52
    ("value-mix", [[1.0]], [[[0.0]], [[-1.5]]],
     [[[[np.finfo(np.float64).max]]], [[[np.finfo(np.float64).max]]]], True),
    # scores of +-1e308 shift to 0 and -inf, which the softmax weighs 1 and 0
    ("huge-spread", [[1e200]], [[[5e107]], [[-5e107]]], [[[[1.0]]], [[[2.0]]]], False),
]


# the same for two heads of width 1, on rows (B, 2): only the second head
# is out of range
TWO_HEAD_OVERFLOWS = [
    ("second-head-product", [[1.0, 1e200]], [[[1.0, 1e200]]], [[[1.0, 1.0]]], True),
    ("second-head-negative-product", [[1.0, 1e200]], [[[1.0, -1e200]], [[1.0, 1.0]]],
     [[[1.0, 1.0]], [[2.0, 2.0]]], True),
    ("second-head-huge-spread", [[1.0, 1e200]], [[[0.0, 5e107]], [[0.0, -5e107]]],
     [[[1.0, 1.0]], [[2.0, 2.0]]], False),
]


def _layer_cases(overflows):
    """``ATTENTION_OVERFLOWS``, or the two-head ones, as one layer's (q_all,
    k_all, v_all): the query at each of the t positions of the keys and
    values, where every position is a query."""
    cases = []
    for case, q, keys, values, raises in overflows:
        q = np.array(q, dtype=float)                                   # (B, d)
        rows = [np.stack([np.reshape(r, (q.shape[0], -1)) for r in rs], axis=1)
                for rs in (keys, values)]
        cases.append((case, [np.repeat(q[:, None], len(keys), axis=1), *rows], raises))
    return cases


def _layer_builders(n_heads):
    """``T.attention`` over every position and its chain, with scale 2."""
    def fused(q_all, k_all, v_all):
        return T.attention(q_all, k_all, v_all, n_heads, 2.0, range(q_all.shape[1]))

    def chain(q_all, k_all, v_all):
        return T.concat(layer_attention_chain(q_all, k_all, v_all, n_heads, 2.0,
                                              range(q_all.shape[1])), axis=0)
    return fused, chain


def _attention_cases(kind):
    """``ATTENTION_OVERFLOWS`` as input arrays, the keys in ``kind``'s shape."""
    key_shape = ATTENTION_KINDS[kind][2]
    return [(case, [np.array(q, dtype=float),
                    *(np.reshape(k, key_shape(*np.shape(q))) for k in keys),
                    *(np.array(v, dtype=float) for v in values)], raises)
            for case, q, keys, values, raises in ATTENTION_OVERFLOWS]


def _arrays(*values):
    return [np.array(v, dtype=float) for v in values]


def _ffn_case(h, w1, w2, gain=(1.0, 1.0, 1.0), b2=(0.0, 0.0, 0.0), a=((0.0, 0.0, 0.0),)):
    """(h, a, gain, bias, W1, b1, W2, b2) of a width-3 sublayer with one
    hidden unit."""
    return _arrays(h, a, gain, [0.0] * 3, w1, [0.0], w2, b2)


# (h, a, gain, bias, W1, b1, W2, b2) near the float64 limit, for every
# nonlinearity: each maps +-inf to a finite value but relu's +inf, so only
# the pre-activation's own check sees most of them
FFN_OVERFLOWS = [
    # h + a overflows, and the norm's variance with it
    ("first-add", _ffn_case([[1.7e308, 1.0, 0.0]], [[1.0], [0.0], [0.0]], [[1.0, 1.0, 1.0]],
                            a=[[1.7e308, 0.0, 0.0]]), True),
    # the square overflows, so inv_std is 0 and the norm finite
    ("infinite-variance", _ffn_case([[1e200, -1e200, 3.0]], [[1.0], [1.0], [1.0]],
                                    [[1.0, 1.0, 1.0]]), True),
    # the gain overflows the norm, and the pre-activation with it
    ("infinite-norm", _ffn_case([[1.0, -1.0, 0.0]], [[1.0], [0.0], [0.0]], [[1.0, 1.0, 1.0]],
                                gain=(1.7e308, 1.7e308, 1.7e308)), True),
    ("pre-activation", _ffn_case([[1.0, -1.0, 0.0]], [[1.7e308], [0.0], [0.0]],
                                 [[1.0, 1.0, 1.0]]), True),
    ("negative-pre-activation", _ffn_case([[1.0, -1.0, 0.0]], [[-1.7e308], [0.0], [0.0]],
                                          [[1.0, 1.0, 1.0]]), True),
    # every hidden value is above 0.7, so the second map's bias overflows
    ("second-map", _ffn_case([[1.0, -1.0, 0.0]], [[1.0], [0.0], [0.0]],
                             [[1.7e308, 1.7e308, 1.7e308]], b2=(1.7e308, 1.7e308, 1.7e308)),
     True),
    ("residual", _ffn_case([[1.7e308, 1.7e308, -1.7e308]], [[0.0], [0.0], [1.0]],
                           [[1e308, 1e308, 1e308]]), True),
    ("huge-finite", _ffn_case([[1.0, -1.0, 0.0]], [[1e300], [0.0], [0.0]],
                              [[1.0, 1.0, 1.0]]), False),
]


# kind -> (fused builder, chain builder, input cases near the float64 limit
# as (case id, input arrays, whether the chain raises))
FUSED_OVERFLOWS = {
    "affine": (_as_pairs(T.affine), _as_pairs(affine_chain), [
        ("product", _affine_case([[[1e308, 1e308]]], [[[1.0], [1.0]]], [0.0]), True),
        ("partial-sum", _affine_case([[[1e308]], [[1e308]]], [[[1.0]], [[1.0]]], [0.0]), True),
        ("inf-minus-inf", _affine_case([[[1e308, 1e308]], [[1e308, 1e308]]],
                                       [[[1.0], [1.0]], [[-1.0], [-1.0]]], [0.0]), True),
        ("bias", _affine_case([[[1.7e308]], [[1.0]]], [[[1.0]], [[1.0]]], [1.7e308]), True),
        ("cancelling", _affine_case([[[1.7e308]], [[1.7e308]], [[1.7e308]]],
                                    [[[1.0]], [[-1.0]], [[0.5]]], [-0.8e308]), False),
    ]),
    # the gates are bounded, so no finite input makes the chain overflow
    "lstm_cell": (lambda g, c: T.lstm_cell(g, c)[0], lambda g, c: lstm_chain(g, c)[0], [
        ("huge-gates", [np.array([[1e308, -1e308, 1e308, -1e308]]), np.array([[1.0]])], False),
        ("huge-state", [np.array([[1e308, 1e308, 1e308, 1e308]]), np.array([[1.7e308]])],
         False),
    ]),
    "cross_entropy": (lambda x: T.cross_entropy(x, np.eye(2)[[1] * x.shape[0]]),
                      lambda x: cross_entropy_chain(x, np.eye(2)[[1] * x.shape[0]]), [
        ("shift", [np.array([[1e308, -1e308]])], True),
        ("sum", [np.array([[1e308, 0.0], [1e308, 0.0]])], True),
        ("huge-row", [np.array([[1.7e308, 1.7e308]])], False),
    ]),
    **{kind: (*_attention_builders(kind, 1), _attention_cases(kind)) for kind in ATTENTION_KINDS},
    "attention": (*_layer_builders(1), _layer_cases(ATTENTION_OVERFLOWS) + [
        # the first query's score against the second key, which it never
        # reads, overflows: the mask keeps it out of the check
        ("masked-product", _arrays([[[1e200], [1.0]]], [[[1.0], [1e200]]], [[[1.0], [2.0]]]),
         False),
    ]),
    "attention/2-heads": (*_layer_builders(2), _layer_cases(TWO_HEAD_OVERFLOWS)),
    **{f"{kind}/2-heads": (*_attention_builders(kind, 2), [
        (case, [np.array(x, dtype=float) for x in (q, *keys, *values)], raises)
        for case, q, keys, values, raises in TWO_HEAD_OVERFLOWS]) for kind in ATTENTION_KINDS},
    **{f"ffn_sublayer/{nonlin}": (
        lambda h, a, g, b, w1, b1, w2, b2, nonlin=nonlin: T.ffn_sublayer(
            h, a, (g, b), (w1, b1), (w2, b2), nonlin, 1e-6),
        lambda h, a, g, b, w1, b1, w2, b2, nonlin=nonlin: ffn_sublayer_chain(
            h, a, (g, b), (w1, b1), (w2, b2), nonlin), FFN_OVERFLOWS)
       for nonlin in T.NONLINEARITIES},
    # (w, u, k, v) over three tokens of one row and width, every token read;
    # the decay is in (0, 1], and exp(709) is 8.2e307
    "rwkv_scan": (lambda w, u, k, v: T.rwkv_scan(w, u, k, v, None, range(3)),
                  lambda w, u, k, v: rwkv_scan_chain(w, u, k, v, None, range(3))[0][-1], [
        ("huge-w", _arrays([1.7e308], [0.0], [[[0.0]]] * 3, [[[1.0]]] * 3), False),
        # the middle token's e^k, which its update reads
        ("middle-exp", _arrays([0.0], [-2000.0], [[[0.0]], [[800.0]], [[0.0]]],
                               [[[1.0]]] * 3), True),
        # the first token's e^k v, which its update reads
        ("first-product", _arrays([0.0], [0.0], [[[1.0]], [[0.0]], [[0.0]]],
                                  [[[1e308]], [[1.0]], [[1.0]]]), True),
        ("middle-decayed-sum", _arrays([0.0], [-2000.0], [[[700.0]], [[700.0]], [[0.0]]],
                                       [[[1.5e4]], [[1.5e4]], [[1.0]]]), True),
        ("middle-bonus", _arrays([400.0], [400.0], [[[0.0]], [[400.0]], [[0.0]]],
                                 [[[1.0]]] * 3), True),
        # u + k = -inf gives a bonus of 0 and the quotient a / b
        ("negative-sum", _arrays([0.0], [-1e308], [[[0.0]], [[-1e308]], [[0.0]]],
                                 [[[1.0]]] * 3), True),
        # b + bonus = inf gives a quotient of 0
        ("denominator", _arrays([0.0], [0.7], [[[709.0]], [[709.0]], [[709.0]]],
                                [[[0.0]]] * 3), True),
        ("huge-finite", _arrays([0.0], [0.0], [[[700.0]], [[0.0]], [[0.0]]],
                                [[[1e3]], [[1.0]], [[1.0]]]), False),
        # the last token's e^k, which its update reads
        ("last-exp", _arrays([0.0], [-2000.0], [[[0.0]], [[0.0]], [[800.0]]],
                             [[[1.0]]] * 3), True),
        # the middle token's e^k v, which its update reads, to inf or -inf;
        # its bonus is 0, and z a, with z <= 1, cannot overflow
        ("middle-product", _arrays([0.0], [-2000.0], [[[0.0]], [[700.0]], [[0.0]]],
                                   [[[1.0]], [[1e10]], [[1.0]]]), True),
        ("middle-negative-product", _arrays([0.0], [-2000.0], [[[0.0]], [[700.0]], [[0.0]]],
                                            [[[1.0]], [[-1e10]], [[1.0]]]), True),
        # a decay of 1 keeps a = 1.7e308 whole, and e^k v cancels it
        ("middle-cancelling-sum", _arrays([-1e308], [-2000.0], [[[700.0]], [[700.0]], [[0.0]]],
                                          [[[1.68e4]], [[-1.68e4]], [[1.0]]]), False),
        # the middle token's bonus e^705 is finite, its product with v is
        # not; e^k v, with e^690, is
        ("middle-readout-product", _arrays([0.0], [15.0], [[[0.0]], [[690.0]], [[0.0]]],
                                           [[[1.0]], [[1e5]], [[1.0]]]), True),
    ]),
    # (q, k, v) before the feature map elu_plus_one (x + 1 for x >= 0) over
    # three tokens of one row, every token read, at one head of width 1
    "linear_scan": (lambda q, k, v: T.linear_scan(q, k, v, None, range(3), 1, "elu_plus_one"),
                    lambda q, k, v: linear_scan_chain(q, k, v, None, range(3), 1,
                                                      "elu_plus_one")[0][-1], [
        ("middle-outer-product", _arrays([[[0.0]]] * 3, [[[0.0]], [[1e200]], [[0.0]]],
                                         [[[1.0]], [[1e200]], [[1.0]]]), True),
        ("first-outer-product", _arrays([[[0.0]]] * 3, [[[1e200]], [[0.0]], [[0.0]]],
                                        [[[1e200]], [[1.0]], [[1.0]]]), True),
        ("state-sum", _arrays([[[0.0]]] * 3, [[[1e154]], [[0.0]], [[0.0]]],
                              [[[1.3e154]], [[1.7e308]], [[1.0]]]), True),
        ("key-sum", _arrays([[[0.0]]] * 3, [[[1.7e308]], [[1.7e308]], [[0.0]]],
                            [[[1e-300]]] * 3), True),
        # an infinite denominator gives a quotient of 0
        ("denominator", _arrays([[[0.0]], [[1e200]], [[0.0]]], [[[1e200]], [[0.0]], [[0.0]]],
                                [[[1e-300]]] * 3), True),
        ("huge-finite", _arrays([[[1e100]]] * 3, [[[1e100]], [[0.0]], [[0.0]]],
                                [[[1e100]], [[1.0]], [[1.0]]]), False),
        # the middle token's outer product cancels a = -1.7e308
        ("cancelling-state-sum", _arrays([[[0.0]]] * 3, [[[0.0]], [[1.3e154]], [[0.0]]],
                                         [[[-1.7e308]], [[1.3e154]], [[1.0]]]), False),
        # phi(q) = e^-1000 = 0 at the middle token gives 0 / 0
        ("zero-denominator", _arrays([[[0.0]], [[-1000.0]], [[0.0]]], [[[0.0]]] * 3,
                                     [[[1.0]]] * 3), True),
        ("numerator", _arrays([[[0.0]], [[1e200]], [[0.0]]], [[[0.0]]] * 3,
                              [[[1e200]], [[1.0]], [[1.0]]]), True),
        # a head of width 2: the middle token's b and phi(q) are finite,
        # their dot product is not
        ("denominator-sum", _arrays([[[0.0, 0.0]]] * 3,
                                    [[[0.0, 0.0]], [[1.7e308, 1.7e308]], [[0.0, 0.0]]],
                                    [[[1e-300, 1e-300]]] * 3), True),
    ]),
    # the same at two heads of width 1: only the second head is out of range
    "linear_scan/2-heads": (
        lambda q, k, v: T.linear_scan(q, k, v, None, range(2), 2, "elu_plus_one"),
        lambda q, k, v: linear_scan_chain(q, k, v, None, range(2), 2, "elu_plus_one")[0][-1], [
            ("second-head-outer-product", _arrays([[[0.0, 0.0]]] * 2,
                                                  [[[0.0, 0.0]], [[0.0, 1e200]]],
                                                  [[[1.0, 1.0]], [[1.0, 1e200]]]), True),
            ("second-head-huge-finite", _arrays([[[0.0, 1e100]]] * 2,
                                                [[[0.0, 1e100]], [[0.0, 0.0]]],
                                                [[[1.0, 1e100]], [[1.0, 1.0]]]), False),
            ("second-head-cancelling", _arrays([[[0.0, 0.0]]] * 2,
                                               [[[0.0, 0.0]], [[0.0, 1.3e154]]],
                                               [[[1.0, -1.7e308]], [[1.0, 1.3e154]]]), False),
            ("second-head-denominator", _arrays([[[0.0, 0.0]], [[0.0, 1e200]]],
                                                [[[0.0, 1e200]], [[0.0, 0.0]]],
                                                [[[1.0, 1e-300]]] * 2), True),
        ]),
}
OVERFLOW_CASES = [(kind, *case) for kind, (_, _, cases) in FUSED_OVERFLOWS.items()
                  for case in cases]


@pytest.mark.parametrize("scoped", [False, True], ids=["bare", "in-scope"])
@pytest.mark.parametrize("kind, case, arrays, chain_raises",
                         OVERFLOW_CASES, ids=[f"{c[0]}-{c[1]}" for c in OVERFLOW_CASES])
def test_a_fused_node_raises_iff_its_chain_raises(kind, case, arrays, chain_raises, scoped):
    fused, chain = FUSED_OVERFLOWS[kind][:2]

    def build(fn):
        with T.graph_scope() if scoped else np.errstate(over="ignore", invalid="ignore"):
            out = fn(*[T.constant(a) for a in arrays])
            (out * T.constant(1.0)).sum()

    if not chain_raises:
        build(chain)
        build(fused)
        return
    with pytest.raises(T.GraphOverflowError):
        build(chain)
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        build(fused)
    # the leaves take the ids after start, and the fused node the next one
    assert (err.value.op_kind, err.value.node_id) == (kind.split("/")[0],
                                                      start + len(arrays) + 1)
    assert not T._pending


def test_cross_entropy_overflow_reports_an_earlier_pending_node_first():
    start = T.constant(0.0).id
    with pytest.raises(T.GraphOverflowError) as err:
        with T.graph_scope():
            T.exp(T.constant([1000.0]))             # node start + 2
            T.cross_entropy(T.constant([[1e308, -1e308]]), np.eye(2)[[1]])
    assert (err.value.op_kind, err.value.node_id) == ("exp", start + 2)


# -- one byte-equality case per fused kind -----------------------------------

# case -> (run, fused side, chain side): ``run(side)`` builds a graph, runs
# backward and returns the bytes of its outputs and of its sources'
# gradients; the tests above compare more shapes and settings, and
# tests/test_hygiene.py checks that every fused kind has a case here
CHAIN_CASES = {
    "layer_norm": (lambda ln: _layer_norm_run(ln, (2, 3, 16), True), T.layer_norm,
                   layer_norm_chain),
    "affine": (lambda affine: _affine_run(affine, 3, (2, 4)), T.affine, affine_chain),
    "lstm_cell": (lambda cell: _lstm_run(cell, (2, 3)), T.lstm_cell, lstm_chain),
    "cross_entropy": (lambda ce: _cross_entropy_run(ce, (2, 3, 6)), T.cross_entropy,
                      cross_entropy_chain),
    "ffn_sublayer": (lambda sublayer: _ffn_run(sublayer, "relu", (2, 4)), _fused_ffn,
                     ffn_sublayer_chain),
    **{f"{kind}-{n_heads}-heads": (lambda fused, kind=kind, n_heads=n_heads: _attention_run(
        kind, fused, 5, 0.35, n_heads), True, False)
       for kind in ["attention", *ATTENTION_KINDS] for n_heads in HEADS},
    "transformer-layers": (lambda fused: _transformer_run(fused, 9, 2, 0.35, [0, 4, 8]), True,
                           False),
    "embed_rows": (_embed_run, True, False),
    "rwkv_scan": (lambda fused: _rwkv_scan_run(fused, SCAN_CHUNKS["resumed"]), True, False),
    **{f"linear_scan-{n_heads}-heads": (
        lambda fused, n_heads=n_heads: _linear_scan_run(fused, SCAN_CHUNKS["resumed"], n_heads),
        True, False) for n_heads in HEADS},
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_chain_case_matches_byte_for_byte(case):
    run, fused, chain = CHAIN_CASES[case]
    assert run(fused) == run(chain)
