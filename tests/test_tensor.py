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
