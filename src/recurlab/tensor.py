"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation creates one graph node (a ``Value``).  Node ids are globally
monotonic, so parent ids are always strictly smaller than the child id and the
graph is acyclic by construction.  Each op kind is declared once, as an ``Op``
in the table after the op functions: its name, its backward function and what
the profiler counts for one node, whatever the tensor sizes.  Some kinds are
fused, and compute, differentiate and overflow-check exactly as the
elementary nodes they replace would, byte for byte:

- ``layer_norm`` (13 ops) and ``affine`` (k matmuls and k adds for k = 1 to
  3 pairs);
- ``lstm_cell``'s two nodes ``lstm_c`` (9 ops) and ``lstm_h`` (4), and
  ``cross_entropy`` (8);
- softmax attention of one query row over t keys, ``attention`` (2t + 6
  ops, a product and a sum per key) and ``cached_attention`` (9, the keys
  scored in one broadcast product), each one op more with a scale; both
  read the keys and values from stacked arrays that the caller keeps
  beside the rows, so their numpy work does not restack t rows;
- RWKV's recurrent update, ``rwkv_decay`` (3 ops), ``rwkv_output`` (6) and
  ``decayed_sum`` (2, or 3 with a weighted new term), and one head of the
  linear Transformer's, ``outer_update`` (4, or 3 with no state yet) and
  ``linear_readout`` (6).

A fused ``Op`` reads its op count, its chain's length from each parent and
its flops off the node, since all three may grow with the number of
parents, so the profiler counts a fused node as the chain.

Elementwise ops follow numpy broadcasting; gradients are summed back over
broadcast axes.  All data is float64 -- equivalence tests between recurrent and
parallel model forms need the head-room.

A graph holds no reference cycles either.  Each op kind's backward function,
such as ``_mul_bwd(out)``, is module-level; it reads its operands from
``out.parents`` and the one op argument it needs (a sum or concat axis, a
slice key or gather indices, a nonlinearity's derivative) from ``out._ctx``.
Neither holds the node itself, so reference counting frees a graph as soon
as its last node is dropped, and a node is two objects that the cyclic
collector tracks: itself and its parents tuple.  The collector has nothing to
find in a graph, yet it would rescan the live graph after every 700 new
container objects, which costs a large share of the time of building a graph
one node at a time.  ``graph_scope`` therefore pauses the collector while a
graph is built or walked; ``tests/test_graph_scope.py`` guards the premise
(``test_graphs_hold_no_cycles``) and the per-op-kind backward functions on
every architecture in both modes.

Every node's data is checked for inf and nan, and the first non-finite node
raises ``GraphOverflowError`` with its op kind and id.  Outside a scope a node
is checked when it is built.  Inside one, checking each small node on its own
would cost a large share of building it, so a node of at most
``_DEFER_SIZE`` elements joins a pending list instead; a larger node is
checked on its own and leaves the list alone.  The list is flushed, checked
in one numpy call, at three points only: when it holds ``_BATCH`` nodes, when
any scope is entered or left (also by an exception), and just before a node
is reported, in ``_overflow``, so that an earlier pending node is reported
first.  Only if that call finds a non-finite value are its nodes walked in
creation order.  So a fault raises the same error for the same node as a
check per node would, before the graph leaves its scope or a nested scope
such as ``backward`` reads it.  Like the collector switch, the list is
process-wide: recurlab builds no graphs from threads.
"""

from __future__ import annotations

import gc
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Op",
    "Value",
    "GradReport",
    "TensorError",
    "ShapeError",
    "GraphOverflowError",
    "NONLINEARITIES",
    "constant",
    "parameter",
    "matmul",
    "affine",
    "add",
    "sub",
    "mul",
    "divide",
    "exp",
    "log",
    "nonlinearity",
    "softmax",
    "layer_norm",
    "lstm_cell",
    "cross_entropy",
    "attention",
    "cached_attention",
    "rwkv_decay",
    "rwkv_output",
    "decayed_sum",
    "outer_update",
    "linear_readout",
    "concat",
    "take_rows",
    "reshape",
    "vsum",
    "backward",
    "grad_check",
    "topo_nodes",
    "graph_scope",
]


class TensorError(Exception):
    """Base error for graph construction and evaluation."""


class ShapeError(TensorError):
    def __init__(self, op_kind: str, *shapes):
        super().__init__(f"shape mismatch in {op_kind}: {' vs '.join(str(s) for s in shapes)}")
        self.op_kind = op_kind
        self.shapes = shapes


class GraphOverflowError(TensorError):
    def __init__(self, op_kind: str, node_id: int):
        super().__init__(f"non-finite output from {op_kind} at node {node_id}")
        self.op_kind = op_kind
        self.node_id = node_id


# Nodes of at most _DEFER_SIZE elements built inside a graph_scope wait in
# _pending for one joint finite check; _BATCH bounds how many wait.  Larger
# nodes are checked at once, so the check never copies a big array.
_BATCH = 256
_DEFER_SIZE = 64
_pending: list["Value"] = []
_depth = 0          # graph_scopes open now


def _check_pending() -> None:
    """Finite-check every node of the non-empty pending list and empty it;
    raise ``GraphOverflowError`` for the first non-finite node in creation
    order."""
    if np.isfinite(np.concatenate([v.data for v in _pending], axis=None)).all():
        _pending.clear()
        return
    batch = _pending[:]
    _pending.clear()
    for v in batch:
        if not np.isfinite(v.data).all():
            raise GraphOverflowError(v.op_kind, v.id)


def _overflow(node: "Value") -> None:
    """Raise ``GraphOverflowError`` for ``node``, whose data or fused chain
    is non-finite, unless a pending node, built before it, is non-finite."""
    if _pending:
        _check_pending()
    raise GraphOverflowError(node.op_kind, node.id)


@contextmanager
def graph_scope():
    """Pause the cyclic collector and numpy's overflow and invalid-value
    warnings while a graph is built or walked, and check small nodes' finite
    values in batches; use as ``with graph_scope():`` or as the decorator
    ``@graph_scope()``.

    Every node's finite check reports overflow as ``GraphOverflowError``, so
    the warnings would only repeat it.  Inside a scope small nodes are checked
    in batches (see the module docstring), with the same error and node as a
    check per node; entering and leaving a scope flushes the pending list, so
    they are checked before this scope is left or a nested one such as
    ``backward`` starts, and an error raised in the scope gives way to the
    overflow of a node built before it.  An interrupt, or any other exception
    outside ``Exception``, drops the unchecked nodes with its graph.  On exit
    the collector is enabled again only if it was enabled on entry, so scopes
    nest and a caller who turned it off keeps it off.
    """
    global _depth
    if _pending:
        _check_pending()
    was_enabled = gc.isenabled()
    gc.disable()
    _depth += 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except BaseException as exc:
        if not isinstance(exc, Exception):
            _pending.clear()
        raise
    finally:
        _depth -= 1
        if was_enabled:
            gc.enable()
        if _pending:
            _check_pending()


_ids = itertools.count()
_FLOAT64 = np.dtype(np.float64)

# nonlinearity kinds: forward fn, derivative expressed from (x, y=f(x))
NONLINEARITIES: dict[str, tuple[Callable, Callable]] = {
    "sigmoid": (
        lambda x: 1.0 / (1.0 + np.exp(-x)),
        lambda x, y: y * (1.0 - y),
    ),
    "tanh": (
        np.tanh,
        lambda x, y: 1.0 - y * y,
    ),
    "relu": (
        lambda x: np.maximum(x, 0.0),
        lambda x, y: (x > 0.0).astype(np.float64),
    ),
    # x + 1 for x >= 0, exp(x) otherwise; strictly positive, used as the
    # feature map of linear attention.
    "elu_plus_one": (
        lambda x: np.where(x >= 0.0, x + 1.0, np.exp(np.minimum(x, 0.0))),
        lambda x, y: np.where(x >= 0.0, 1.0, y),
    ),
}


class Op:
    """One op kind: its name, its backward function (``None`` for a leaf) and
    what the profiler counts for one of its nodes: ``flops(node)``, the
    elementary ``ops`` it stands for and the longest ``chains`` of them from
    each parent to its output.  A leaf has ``ops`` 0 and an elementary kind
    1, both with ``chains`` None: the node is one op, one step past its
    deepest parent.  A fused kind reads both off the node, as ``flops``
    does: ``ops(node)`` is its chain's op count and ``chains(node)`` a tuple
    of one length per parent, since the chain may grow with the parents."""

    __slots__ = ("name", "backward", "flops", "ops", "chains")

    def __init__(self, name: str, backward: Callable | None,
                 flops: Callable[["Value"], int], ops=1,
                 chains: Callable[["Value"], tuple] | None = None):
        self.name = name
        self.backward = backward
        self.flops = flops
        self.ops = ops
        self.chains = chains

    def __repr__(self):
        return f"Op({self.name!r})"


class Value:
    """One node of the computation graph.

    ``parents`` is the ordered operand list; ``input`` and ``parameter`` nodes
    have no parents.  A node holds no gradient array until ``backward`` first
    reaches it; until then ``grad`` reads as zeros of ``data``'s shape, so
    forward-only graphs allocate no gradient memory.  ``op`` is the node's
    ``Op`` and ``_ctx`` the op argument its backward function reads.

    A node whose data holds inf or nan raises ``GraphOverflowError`` naming
    its op kind and id: when it is built outside a ``graph_scope`` or holds
    more than ``_DEFER_SIZE`` elements, else by the next flush of the pending
    list (see the module docstring).
    """

    __slots__ = ("data", "_grad", "op", "parents", "id", "_ctx")

    def __init__(self, data, op: Op, parents: Sequence["Value"] = (), _ctx=None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self._grad = None
        self.op = op
        self.parents = tuple(parents)
        self.id = next(_ids)
        self._ctx = _ctx
        if _depth and data.size <= _DEFER_SIZE:
            _pending.append(self)
            if len(_pending) >= _BATCH:
                _check_pending()
        elif not np.isfinite(data).all():
            _overflow(self)

    @property
    def op_kind(self) -> str:
        return self.op.name

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """d(root)/d(self) summed over ``backward`` calls since the last
        ``zero_grad``; zeros of ``data``'s shape if no call reached this node."""
        return np.zeros_like(self.data) if self._grad is None else self._grad

    def zero_grad(self):
        self._grad = None

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __truediv__(self, other):
        return divide(self, _lift(other))

    def __neg__(self):
        return mul(self, constant(-1.0))

    def log(self):
        return log(self)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def softmax(self):
        return softmax(self)

    def slice(self, key):
        return slice_(self, key)

    def __repr__(self):
        return f"Value(id={self.id}, op={self.op_kind}, shape={self.shape})"


def _lift(x) -> Value:
    return x if isinstance(x, Value) else constant(x)


def constant(data) -> Value:
    return Value(data, _INPUT)


def parameter(data) -> Value:
    return Value(data, _PARAMETER)


def _accumulate(v: Value, g) -> None:
    """Add ``g`` (already of ``v``'s shape) into ``v``'s gradient, allocating
    the array on the first contribution.  ``g`` may be another node's
    gradient, so the first contribution is copied, never kept."""
    if v._grad is None:
        v._grad = np.array(g)
    else:
        v._grad += g


def _grad_buffer(v: Value) -> np.ndarray:
    """``v``'s gradient array, zero-filled on first use, for scatter-adds."""
    if v._grad is None:
        v._grad = np.zeros_like(v.data)
    return v._grad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _binary(op: Op, a: Value, b: Value, fwd) -> Value:
    try:
        data = fwd(a.data, b.data)
    except ValueError as err:
        raise ShapeError(op.name, a.shape, b.shape) from err
    return Value(data, op, (a, b))


def _add_bwd(out):
    a, b = out.parents
    g = out._grad
    _accumulate(a, _unbroadcast(g, a.shape))
    _accumulate(b, _unbroadcast(g, b.shape))


def _sub_bwd(out):
    a, b = out.parents
    g = out._grad
    _accumulate(a, _unbroadcast(g, a.shape))
    _accumulate(b, _unbroadcast(-g, b.shape))


def _mul_bwd(out):
    a, b = out.parents
    g = out._grad
    _accumulate(a, _unbroadcast(g * b.data, a.shape))
    _accumulate(b, _unbroadcast(g * a.data, b.shape))


def _divide_bwd(out):
    a, b = out.parents
    x, y, g = a.data, b.data, out._grad
    _accumulate(a, _unbroadcast(g / y, a.shape))
    _accumulate(b, _unbroadcast(-g * x / (y * y), b.shape))


def add(a: Value, b: Value) -> Value:
    return _binary(_ADD, a, b, np.add)


def sub(a: Value, b: Value) -> Value:
    return _binary(_SUB, a, b, np.subtract)


def mul(a: Value, b: Value) -> Value:
    return _binary(_MUL, a, b, np.multiply)


def divide(a: Value, b: Value) -> Value:
    # x/0 and 0/0 yield inf/nan; the node's finite check then raises
    # GraphOverflowError with this node's id
    with np.errstate(divide="ignore", invalid="ignore"):
        return _binary(_DIVIDE, a, b, np.divide)


def _matmul_grad(a: Value, b: Value, g: np.ndarray) -> None:
    """Add the gradients of ``a @ b`` under output gradient ``g`` into ``a``
    and ``b``: the rule of a matmul node, and of each product in ``affine``."""
    ad, bd = a.data, b.data
    a1, b1 = ad.ndim == 1, bd.ndim == 1
    # promote 1D operands to matrices so one transpose rule covers all cases
    ad2 = ad[None, :] if a1 else ad
    bd2 = bd[:, None] if b1 else bd
    if a1 and b1:
        g = g.reshape(1, 1)
    elif a1:
        g = g[..., None, :]
    elif b1:
        g = g[..., :, None]
    ga = np.matmul(g, np.swapaxes(bd2, -1, -2))
    gb = np.matmul(np.swapaxes(ad2, -1, -2), g)
    if a1:
        ga = ga[..., 0, :]
    if b1:
        gb = gb[..., :, 0]
    _accumulate(a, _unbroadcast(ga, a.shape))
    _accumulate(b, _unbroadcast(gb, b.shape))


def _matmul_bwd(out):
    _matmul_grad(*out.parents, out._grad)


def matmul(a: Value, b: Value) -> Value:
    return _binary(_MATMUL, a, b, np.matmul)


def _affine_bwd(out):
    # replays the chain's backward steps in reverse creation order: the bias
    # add, then each product from the last pair to the first; every product
    # has the output's shape, so each receives the output's gradient as is
    *operands, bias = out.parents
    g = out._grad
    _accumulate(bias, _unbroadcast(g, bias.shape))
    for j in range(len(operands) - 2, -1, -2):
        _matmul_grad(operands[j], operands[j + 1], g)


def affine(pairs: Sequence[tuple], bias: Value) -> Value:
    """``x0 @ W0 + x1 @ W1 + ... + bias`` for 1 to 3 (x, W) ``pairs``, summed
    left to right, as one node with parents (x0, W0, x1, W1, ..., bias).

    The products must all have the output's shape, so the bias may broadcast
    only into it.  Data and gradients are byte-identical to the chain of k
    matmul and k add nodes, and ``_AFFINE`` counts it as that chain.  A
    non-finite product or partial sum stays non-finite through the adds, so
    the output's check raises whenever a node of the chain would have.
    """
    if not 1 <= len(pairs) <= 3:
        raise TensorError(f"affine takes 1 to 3 pairs, got {len(pairs)}")
    parents = (*(v for pair in pairs for v in pair), bias)
    try:
        products = [np.matmul(x.data, w.data) for x, w in pairs]
        data = products[0]
        for product in products[1:]:
            data = data + product
        data = data + bias.data
    except ValueError as err:
        raise ShapeError(_AFFINE.name, *(v.shape for v in parents)) from err
    if any(product.shape != data.shape for product in products):
        raise ShapeError(_AFFINE.name, *(v.shape for v in parents))
    return Value(data, _AFFINE, parents)


def _exp_bwd(out):
    _accumulate(out.parents[0], out._grad * out.data)


def exp(a: Value) -> Value:
    # overflow yields inf; the node's finite check then raises
    # GraphOverflowError with this node's id
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return Value(data, _EXP, (a,))


def _log_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad / a.data)


def log(a: Value) -> Value:
    # log(0) and log(x < 0) yield -inf/nan; the node's finite check then
    # raises GraphOverflowError with this node's id
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return Value(data, _LOG, (a,))


def _nonlinearity_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad * out._ctx(a.data, out.data))


def nonlinearity(a: Value, kind: str) -> Value:
    if kind not in NONLINEARITIES:
        raise TensorError(f"unknown nonlinearity {kind!r}")
    fwd, deriv = NONLINEARITIES[kind]
    return Value(fwd(a.data), _NONLINEARITY_OPS[kind], (a,), deriv)


def _softmax_bwd(out):
    y, g = out.data, out._grad
    _accumulate(out.parents[0], y * (g - (g * y).sum(axis=-1, keepdims=True)))


def softmax(a: Value) -> Value:
    """Softmax over the last axis; subtracts the row max before exponentiating
    (semantics-preserving stabilization)."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)
    return Value(data, _SOFTMAX, (a,))


def _layer_norm_bwd(out):
    # replays the backward steps of the 13 elementary nodes that layer_norm
    # fuses, in their reverse creation order and with the same arithmetic, so
    # every gradient keeps its bytes; the constants' gradients are skipped,
    # since nothing reads them
    x, gain, bias = out.parents
    centered, inv_std, var_eps, normed = out._ctx
    g = out._grad
    inv_d = 1.0 / x.shape[-1]
    _accumulate(bias, _unbroadcast(g, bias.shape))                 # + bias
    _accumulate(gain, _unbroadcast(g * normed, gain.shape))        # * gain
    g_normed = g * gain.data
    g_centered = g_normed * inv_std                                # * inv_std
    g_inv_std = _unbroadcast(g_normed * centered, inv_std.shape)
    g_var = g_inv_std * inv_std * -0.5 / var_eps                   # exp, * -0.5, log
    g_sq = np.broadcast_to(g_var * inv_d, centered.shape)          # + eps, * 1/d, sum
    g_centered = g_centered + g_sq * centered                      # square, one
    g_centered += g_sq * centered                                  # operand at a time
    _accumulate(x, g_centered)                                     # x - mean
    g_mean = _unbroadcast(-g_centered, inv_std.shape)
    _accumulate(x, np.broadcast_to(g_mean * inv_d, x.shape))       # * 1/d, sum


def layer_norm(x: Value, gain: Value, bias: Value, eps: float) -> Value:
    """Normalize ``x`` over its last axis to zero mean and unit variance,
    then scale by ``gain`` and shift by ``bias``, both of shape (d,).

    One node for 13 elementary ops: sum, * 1/d, sub, square, sum, * 1/d,
    + eps, log, * -0.5, exp (so 1/sqrt(var + eps) is exp(-log(var + eps)/2)),
    * inv_std, * gain and + bias.  Data and gradients are byte-identical to
    that chain's, and ``_LAYER_NORM`` counts it as the chain.  The node raises
    ``GraphOverflowError`` whenever a node of the chain would have: an
    infinite variance makes inv_std 0 and the output finite, so var + eps is
    checked as well as the output.
    """
    d = x.shape[-1] if x.data.ndim else 0
    if not d or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(_LAYER_NORM.name, x.shape, gain.shape, bias.shape)
    xd = x.data
    inv_d = 1.0 / d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = xd.sum(axis=-1, keepdims=True) * inv_d
        centered = xd - mean
        var_eps = (centered * centered).sum(axis=-1, keepdims=True) * inv_d + eps
        inv_std = np.exp(np.log(var_eps) * -0.5)
        normed = centered * inv_std
        data = normed * gain.data + bias.data
    out = Value(data, _LAYER_NORM, (x, gain, bias), (centered, inv_std, var_eps, normed))
    if not np.isfinite(var_eps).all():
        _overflow(out)
    return out


_sigmoid, _sigmoid_deriv = NONLINEARITIES["sigmoid"]
_tanh, _tanh_deriv = NONLINEARITIES["tanh"]


def _lstm_c_bwd(out):
    # replays the backward steps of lstm_c's 9 nodes in reverse creation
    # order: the add, i * g, f * c_prev, then each gate's nonlinearity and
    # slice; the gates' gradient buffer takes each gate's columns once
    gates, c_prev = out.parents
    i, f, g = out._ctx
    grad = out._grad
    d = c_prev.shape[-1]
    g_i, g_g = grad * g, grad * i
    g_f = grad * c_prev.data
    _accumulate(c_prev, grad * f)
    buf, x = _grad_buffer(gates), gates.data
    buf[..., 3 * d:] += g_g * _tanh_deriv(x[..., 3 * d:], g)
    buf[..., d:2 * d] += g_f * _sigmoid_deriv(x[..., d:2 * d], f)
    buf[..., :d] += g_i * _sigmoid_deriv(x[..., :d], i)


def _lstm_h_bwd(out):
    # replays o * tanh(c), tanh(c), and the output gate's sigmoid and slice
    gates, c = out.parents
    o, tanh_c = out._ctx
    grad = out._grad
    d = c.shape[-1]
    _accumulate(c, grad * o * _tanh_deriv(c.data, tanh_c))
    _grad_buffer(gates)[..., 2 * d:3 * d] += \
        grad * tanh_c * _sigmoid_deriv(gates.data[..., 2 * d:3 * d], o)


def lstm_cell(gates: Value, c_prev: Value) -> tuple:
    """One LSTM cell update from the pre-activation ``gates`` (..., 4d),
    whose column blocks are the input, forget, output and cell gates, and
    the previous cell state ``c_prev`` (..., d); returns ``(h, c)``.

    ``c = f * c_prev + i * g`` is one ``lstm_c`` node with parents (gates,
    c_prev), for the 9 elementary nodes that built it: 3 slices, 2 sigmoids,
    a tanh, 2 muls and an add.  ``h = o * tanh(c)`` is one ``lstm_h`` node
    with parents (gates, c), for 4: a slice, a sigmoid, a tanh and a mul.  Two
    nodes, not one, so that the profiler's depths stay those of the chain.
    Data and gradients are byte-identical to the chain's.  The gate
    activations are bounded, so a non-finite node of the chain leaves c or h
    non-finite, and each output's check raises where the chain would have.
    """
    d = c_prev.shape[-1] if c_prev.data.ndim else 0
    if not d or gates.shape != c_prev.shape[:-1] + (4 * d,):
        raise ShapeError(_LSTM_C.name, gates.shape, c_prev.shape)
    x = gates.data
    i, f = _sigmoid(x[..., :d]), _sigmoid(x[..., d:2 * d])
    g = _tanh(x[..., 3 * d:])
    c = Value(f * c_prev.data + i * g, _LSTM_C, (gates, c_prev), (i, f, g))
    o, tanh_c = _sigmoid(x[..., 2 * d:3 * d]), _tanh(c.data)
    return Value(o * tanh_c, _LSTM_H, (gates, c), (o, tanh_c)), c


def _cross_entropy_bwd(out):
    # replays the backward steps of the chain's 8 nodes in reverse creation
    # order; the constants' gradients are skipped, since nothing reads them
    x = out.parents[0]
    onehot, e, row_sum = out._ctx
    g_diff = out._grad * onehot                                    # sum, * onehot
    _accumulate(x, -g_diff)                                        # lse - x
    g_sum = _unbroadcast(g_diff, row_sum.shape) / row_sum          # + max, log
    _accumulate(x, g_sum * e)                                      # sum, exp, x - max


def cross_entropy(x: Value, onehot) -> Value:
    """``sum(onehot * (logsumexp(x) - x))`` over every row of the logits
    ``x`` (..., V): the summed cross-entropy of the rows' one-hot targets.

    One node for 8 elementary ops: x - max, exp, sum, log, + max, lse - x,
    * onehot and the total sum, where max is the row max (a constant, so no
    gradient flows through it).  ``onehot`` is an array of ``x``'s shape, not
    a node.  Data and ``x``'s gradient are byte-identical to that chain's.
    The node raises ``GraphOverflowError`` whenever a node of the chain would
    have: x - max is checked as well as the output.  lse - x needs no check
    of its own, since it is (max - x) + log(row_sum) with row_sum in [1, V].
    """
    onehot = np.asarray(onehot, dtype=np.float64)
    if not x.data.ndim or onehot.shape != x.shape:
        raise ShapeError(_CROSS_ENTROPY.name, x.shape, onehot.shape)
    xd = x.data
    row_max = xd.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = xd - row_max
        e = np.exp(shifted)
        row_sum = e.sum(axis=-1, keepdims=True)
        diff = np.log(row_sum) + row_max - xd
        data = (diff * onehot).sum()
    out = Value(data, _CROSS_ENTROPY, (x,), (onehot, e, row_sum))
    if not np.isfinite(shifted).all():
        _overflow(out)
    return out


def _attend(op: Op, q: Value, keys: Sequence[Value], values: Sequence[Value], key_array,
            value_array, scale) -> Value:
    """The forward both attention kinds share: q (B, dh) scored against the t
    keys stacked in ``key_array`` (B, t, dh), scaled, softmaxed and mixed
    over the t values stacked in ``value_array`` (B, t, dv), as one node with
    parents (q, keys..., values...).  The rows are not read: the caller
    guarantees that ``key_array[:, j]`` and ``value_array[:, j]`` hold the
    data of key and value row j, so the check is O(1) in t."""
    parents = (q, *keys, *values)
    t = len(keys)
    if (q.data.ndim != 2 or not t or len(values) != t
            or key_array.shape != (q.shape[0], t, q.shape[1])
            or value_array.ndim != 3 or value_array.shape[:2] != (q.shape[0], t)):
        raise ShapeError(op.name, *(v.shape for v in parents), key_array.shape,
                         value_array.shape)
    b = q.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        scores = (q.data[:, None, :] * key_array).sum(axis=-1)                 # (B, t)
        if scale is not None:
            scores = scores * scale
        shifted = scores - scores.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        weights = e / e.sum(axis=-1, keepdims=True)
        data = np.matmul(weights.reshape((b, 1, t)), value_array)
    data = data.reshape((b, value_array.shape[-1]))
    out = Value(data, op, parents, (scale, weights))
    if not np.isfinite(scores).all():
        _overflow(out)
    return out


def _mix_bwd(out) -> np.ndarray:
    """The backward steps both attention kinds share, in reverse creation
    order: the output reshape, the value matmul and the weights' reshape,
    the value concat (adding to each value row in ascending order), the
    softmax and the scale; returns the scores' gradient."""
    scale, weights = out._ctx
    values = out.parents[len(out.parents) // 2 + 1:]
    b, t = weights.shape
    g = out._grad.reshape((b, 1, out.shape[-1]))
    stacked = np.concatenate([v.data for v in values], axis=1)
    g_weights = np.matmul(g, np.swapaxes(stacked, -1, -2)).reshape((b, t))
    g_stacked = np.matmul(np.swapaxes(weights.reshape((b, 1, t)), -1, -2), g)
    for j, v in enumerate(values):
        _accumulate(v, g_stacked[:, j:j + 1])
    g_scores = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    return g_scores if scale is None else g_scores * scale


def _attention_bwd(out):
    # then the per-key chain: the scores' concat and sums, and each product
    # from the last key to the first, adding to q and then to the key
    g_scores = _mix_bwd(out)
    q, *keys = out.parents[:len(out.parents) // 2 + 1]
    for j in range(len(keys) - 1, -1, -1):
        g = g_scores[:, j:j + 1]
        _accumulate(q, g * keys[j].data)
        _accumulate(keys[j], g * q.data)


def _cached_attention_bwd(out):
    # then the cached chain: the sum, the broadcast product (q's gradient an
    # unbroadcast sum over the cache), q's reshape and the keys' concat
    g_scores = _mix_bwd(out)
    q, *keys = out.parents[:len(out.parents) // 2 + 1]
    b, dh = q.shape
    stacked_keys = np.concatenate([k.data for k in keys], axis=1)
    g_product = np.broadcast_to(g_scores[..., None], stacked_keys.shape)
    _accumulate(q, _unbroadcast(g_product * stacked_keys, (b, 1, dh)).reshape((b, dh)))
    g_keys = g_product * q.data.reshape((b, 1, dh))
    for j, k in enumerate(keys):
        _accumulate(k, g_keys[:, j:j + 1])


def attention(q: Value, keys: Sequence[Value], values: Sequence[Value], key_array,
              value_array, scale) -> Value:
    """Softmax attention of one query row ``q`` (B, dh) over t ``keys`` of
    shape (B, dh) and t ``values`` of shape (B, 1, dv); returns (B, dv).
    ``key_array`` (B, t, dh) and ``value_array`` (B, t, dv) are the rows
    stacked, read in their place: ``key_array[:, j]`` must be ``keys[j]``'s
    data and ``value_array[:, j]`` ``values[j]``'s, and only their shapes are
    checked, so a caller that holds the rows as columns of one array passes
    a view of it.

    One node for the chain that scored every key on its own: a product and
    a row sum per key, the scores' concat, ``* scale`` unless ``scale`` is
    None, a softmax, the values' concat, a reshape, a matmul and a reshape:
    2t + 6 ops, 2t + 7 with the scale.  Data and gradients are byte-identical
    to that chain's.  The node raises ``GraphOverflowError`` whenever a node
    of the chain would have: the softmax leaves non-finite scores' output
    finite, so the scores are checked as well as the output.
    """
    return _attend(_ATTENTION, q, keys, values, key_array, value_array, scale)


def cached_attention(q: Value, key_rows: Sequence[Value], value_rows: Sequence[Value],
                     key_array, value_array, scale) -> Value:
    """Softmax attention of one query ``q`` (B, dh) over a KV cache of t
    ``key_rows`` and t ``value_rows``, of shapes (B, 1, dh) and (B, 1, dv);
    returns (B, dv), equal to ``attention``'s element for element.  As in
    ``attention``, ``key_array[:, j]`` (B, t, dh) and ``value_array[:, j]``
    (B, t, dv) must hold row j's data.

    One node for the chain that scored the stacked cache in one broadcast
    product: the keys' concat, q's reshape, the product, a row sum, ``*
    scale`` unless ``scale`` is None, and the same softmax and value mix as
    ``attention``: 9 ops, 10 with the scale, whatever t is.  Data and
    gradients are byte-identical to that chain's, whose gradients differ
    from ``attention``'s chain in the last bits; scores and output are
    checked as in ``attention``.
    """
    return _attend(_CACHED_ATTENTION, q, key_rows, value_rows, key_array, value_array, scale)


_elu1, _elu1_deriv = NONLINEARITIES["elu_plus_one"]


def _rwkv_decay_bwd(out):
    # replays exp, * -1 and elu_plus_one in reverse creation order
    w = out.parents[0]
    _accumulate(w, out._grad * out.data * -1.0 * _elu1_deriv(w.data, out._ctx))


def rwkv_decay(w: Value) -> Value:
    """RWKV's per-channel decay factor ``exp(-elu_plus_one(w))``, in (0, 1].

    One node for the 3 elementary ops that built it: the nonlinearity, the
    negation (a product with the constant -1) and the exp.  Data and
    gradients are byte-identical to that chain's.  No node of the chain can
    be non-finite for a finite ``w``: elu_plus_one is finite and positive,
    so the exp's argument is finite and negative.
    """
    nl = _elu1(w.data)
    return Value(np.exp(nl * -1.0), _RWKV_DECAY, (w,), nl)


def _rwkv_output_bwd(out):
    # replays h = num / den, den = b + bonus, num = a + bonus * v,
    # bonus = exp(s) and s = u + k in reverse creation order: b, a, v, then u
    # and k receive their gradients
    u, k, v, a, b = out.parents
    bonus, num, den = out._ctx
    g = out._grad
    g_num = _unbroadcast(g / den, num.shape)
    g_den = _unbroadcast(-g * num / (den * den), den.shape)
    _accumulate(b, _unbroadcast(g_den, b.shape))
    _accumulate(a, _unbroadcast(g_num, a.shape))
    g_bv = _unbroadcast(g_num, np.broadcast_shapes(bonus.shape, v.shape))
    g_bonus = _unbroadcast(g_den, bonus.shape) + _unbroadcast(g_bv * v.data, bonus.shape)
    _accumulate(v, _unbroadcast(g_bv * bonus, v.shape))
    g_s = g_bonus * bonus
    _accumulate(u, _unbroadcast(g_s, u.shape))
    _accumulate(k, _unbroadcast(g_s, k.shape))


def rwkv_output(u: Value, k: Value, v: Value, a: Value, b: Value) -> Value:
    """RWKV's output at one step, ``(a + bonus * v) / (b + bonus)`` with the
    current token's bonus ``exp(u + k)``, from the decayed sums ``a`` and
    ``b`` of the earlier tokens; one node with parents (u, k, v, a, b).

    One node for the 6 elementary ops that built it: u + k, the exp, bonus *
    v, the two adds and the divide.  Data and gradients are byte-identical to
    that chain's.  The node raises ``GraphOverflowError`` whenever a node of
    the chain would have: u + k = -inf gives a bonus of 0, and b + bonus =
    inf a finite quotient, so both are checked as well as the output.
    """
    parents = (u, k, v, a, b)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s = u.data + k.data
            bonus = np.exp(s)
            num = a.data + bonus * v.data
            den = b.data + bonus
            data = num / den
    except ValueError as err:
        raise ShapeError(_RWKV_OUTPUT.name, *(p.shape for p in parents)) from err
    out = Value(data, _RWKV_OUTPUT, parents, (bonus, num, den))
    if not (np.isfinite(s).all() and np.isfinite(den).all()):
        _overflow(out)
    return out


def _decayed_sum_bwd(out):
    # replays the add, then x * y (if any) and z * a in reverse creation
    # order: x (and y), z and a receive their gradients
    z, a, x, *y = out.parents
    g = out._grad
    if y:
        g_xy = _unbroadcast(g, np.broadcast_shapes(x.shape, y[0].shape))
        _accumulate(x, _unbroadcast(g_xy * y[0].data, x.shape))
        _accumulate(y[0], _unbroadcast(g_xy * x.data, y[0].shape))
    else:
        _accumulate(x, _unbroadcast(g, x.shape))
    g_za = _unbroadcast(g, np.broadcast_shapes(z.shape, a.shape))
    _accumulate(z, _unbroadcast(g_za * a.data, z.shape))
    _accumulate(a, _unbroadcast(g_za * z.data, a.shape))


def decayed_sum(z: Value, a: Value, x: Value, y: Value | None = None) -> Value:
    """``z * a + x * y``, or ``z * a + x`` without ``y``: a sum ``a`` decayed
    by ``z`` with a new term added, as one node with parents (z, a, x, y) or
    (z, a, x) for the chain's products and add, 3 ops or 2.

    Data and gradients are byte-identical to that chain's, which builds
    z * a before x * y.  A non-finite product stays non-finite through the
    add, so the output's check raises whenever the chain's would have.
    """
    parents = (z, a, x) if y is None else (z, a, x, y)
    try:
        data = z.data * a.data + (x.data if y is None else x.data * y.data)
    except ValueError as err:
        raise ShapeError(_DECAYED_SUM.name, *(p.shape for p in parents)) from err
    return Value(data, _DECAYED_SUM, parents)


def _outer_update_bwd(out):
    # replays the add (if any), the outer product and the two reshapes, the
    # value's after the key's in creation order: a, v and k receive theirs
    *a, k, v = out.parents
    g = out._grad
    (batch, dh), dv = k.shape, v.shape[-1]
    rk, rv = k.data.reshape((batch, dh, 1)), v.data.reshape((batch, 1, dv))
    if a:
        _accumulate(a[0], _unbroadcast(g, a[0].shape))
        g = _unbroadcast(g, (batch, dh, dv))
    _accumulate(v, np.matmul(np.swapaxes(rk, -1, -2), g).reshape(v.shape))
    _accumulate(k, np.matmul(g, np.swapaxes(rv, -1, -2)).reshape(k.shape))


def outer_update(a: Value | None, k: Value, v: Value) -> Value:
    """``a + k (x) v``: the outer product of ``k`` (B, dh) and ``v`` (B, dv),
    (B, dh, dv), added to the state ``a``, or alone when ``a`` is None; one
    node with parents (a, k, v) or (k, v).

    One node for the chain's two reshapes, its matmul and, with ``a``, its
    add: 4 ops, or 3.  Data and gradients are byte-identical to that
    chain's; a non-finite product stays non-finite through the add of a
    finite ``a``, so the output's check raises whenever the chain's would.
    """
    if k.data.ndim != 2 or v.data.ndim != 2 or k.shape[0] != v.shape[0]:
        raise ShapeError(_OUTER_UPDATE.name, k.shape, v.shape)
    (batch, dh), dv = k.shape, v.shape[-1]
    data = np.matmul(k.data.reshape((batch, dh, 1)), v.data.reshape((batch, 1, dv)))
    if a is None:
        return Value(data, _OUTER_UPDATE, (k, v))
    try:
        data = a.data + data
    except ValueError as err:
        raise ShapeError(_OUTER_UPDATE.name, a.shape, k.shape, v.shape) from err
    return Value(data, _OUTER_UPDATE, (a, k, v))


def _linear_readout_bwd(out):
    # replays the divide, the sum, q * b, the reshape, the matmul and q's
    # reshape in reverse creation order: q, b, a and then q again receive
    # their gradients
    q, a, b = out.parents
    num, den = out._ctx
    g = out._grad
    g_num = _unbroadcast(g / den, num.shape)
    g_p = np.broadcast_to(_unbroadcast(-g * num / (den * den), den.shape),
                          np.broadcast_shapes(q.shape, b.shape))
    _accumulate(q, _unbroadcast(g_p * b.data, q.shape))
    _accumulate(b, _unbroadcast(g_p * q.data, b.shape))
    (batch, dh), dv = q.shape, a.shape[-1]
    g_m = g_num.reshape((batch, 1, dv))
    rq = q.data.reshape((batch, 1, dh))
    g_rq = np.matmul(g_m, np.swapaxes(a.data, -1, -2))
    _accumulate(a, _unbroadcast(np.matmul(np.swapaxes(rq, -1, -2), g_m), a.shape))
    _accumulate(q, g_rq.reshape(q.shape))


def linear_readout(q: Value, a: Value, b: Value) -> Value:
    """Linear attention's read-out ``(q a) / (q . b)`` of the query ``q``
    (B, dh) from the state ``a`` (B, dh, dv) and ``b`` (B, dh); returns
    (B, dv).

    One node for the 6 elementary ops that built it: q's reshape, the
    matmul with ``a`` and its reshape, q * b, the row sum and the divide.
    Data and gradients are byte-identical to that chain's.  The node raises
    ``GraphOverflowError`` whenever a node of the chain would have: an
    infinite denominator leaves the quotient finite, so it is checked as
    well as the output.
    """
    if (q.data.ndim != 2 or a.data.ndim != 3 or a.shape[:2] != q.shape
            or b.shape != q.shape):
        raise ShapeError(_LINEAR_READOUT.name, q.shape, a.shape, b.shape)
    batch, dh = q.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.matmul(q.data.reshape((batch, 1, dh)), a.data).reshape((batch, a.shape[-1]))
        den = (q.data * b.data).sum(axis=-1, keepdims=True)
        data = num / den
    out = Value(data, _LINEAR_READOUT, (q, a, b), (num, den))
    if not np.isfinite(den).all():
        _overflow(out)
    return out


def _concat_bwd(out):
    axis = out._ctx
    idx = [slice(None)] * out.data.ndim
    lo = 0
    for v in out.parents:
        hi = lo + v.data.shape[axis]
        idx[axis] = slice(lo, hi)
        _accumulate(v, out._grad[tuple(idx)])
        lo = hi


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    values = tuple(values)
    try:
        data = np.concatenate([v.data for v in values], axis=axis)
    except ValueError as err:
        raise ShapeError(_CONCAT.name, *[v.shape for v in values]) from err
    return Value(data, _CONCAT, values, axis)


def _is_basic_key(key) -> bool:
    """True for an index of slices, ints, ``...`` and ``None`` only: it selects
    a view, in which no cell of the source appears twice.  A bool is a
    gather key, as numpy reads it as a mask."""
    for k in key if isinstance(key, tuple) else (key,):
        kind = type(k)
        if kind is slice or kind is int or k is None or k is Ellipsis:
            continue
        if kind is bool or not isinstance(k, (int, np.integer)):
            return False
    return True


def _slice_bwd(out):
    _grad_buffer(out.parents[0])[out._ctx] += out._grad


def _gather_bwd(out):
    # fancy indices may repeat a cell; add.at sums every occurrence
    np.add.at(_grad_buffer(out.parents[0]), out._ctx, out._grad)


def slice_(a: Value, key) -> Value:
    return Value(a.data[key], _VIEW_SLICE if _is_basic_key(key) else _GATHER, (a,), key)


def take_rows(a: Value, indices) -> Value:
    """Gather rows along axis 0 (embedding-table lookup)."""
    return slice_(a, np.asarray(indices))


def _reshape_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad.reshape(a.shape))


def reshape(a: Value, shape) -> Value:
    try:
        data = a.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(_RESHAPE.name, a.shape, shape) from err
    return Value(data, _RESHAPE, (a,))


def _sum_bwd(out):
    # _ctx is the summed axis when it was dropped, else None
    a = out.parents[0]
    g = out._grad
    if out._ctx is not None:
        g = np.expand_dims(g, out._ctx)
    _accumulate(a, np.broadcast_to(g, a.shape))


def vsum(a: Value, axis=None, keepdims: bool = False) -> Value:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return Value(data, _SUM, (a,), None if keepdims else axis)


# -- the op kinds ---------------------------------------------------------
# flops(node) is a rough per-scalar cost: one flop per output scalar, four for
# exp, log, softmax and a nonlinearity, one per input scalar for a sum, the
# classic 2·m·n·k for matmul, and none for moving data.

def _per_out(k: int) -> Callable[[Value], int]:
    return lambda v: k * v.data.size


def _always(count):
    """The count of a fused kind whose chain does not depend on the node."""
    return lambda v: count


def _affine_chains(v: Value) -> tuple:
    # the first pair's operands k + 1 ops from the output, pair j's (j >= 2)
    # k - j + 3 and the bias's 1
    k = len(v.parents) // 2
    return (k + 1, k + 1, *(k - j + 3 for j in range(2, k + 1) for _ in range(2)), 1)


_INPUT = Op("input", None, _per_out(0), ops=0)
_PARAMETER = Op("parameter", None, _per_out(0), ops=0)
_ADD = Op("add", _add_bwd, _per_out(1))
_SUB = Op("sub", _sub_bwd, _per_out(1))
_MUL = Op("mul", _mul_bwd, _per_out(1))
_DIVIDE = Op("divide", _divide_bwd, _per_out(1))
_MATMUL = Op("matmul", _matmul_bwd, lambda v: 2 * v.data.size * v.parents[0].shape[-1])
_EXP = Op("exp", _exp_bwd, _per_out(4))
_LOG = Op("log", _log_bwd, _per_out(4))
_SOFTMAX = Op("softmax", _softmax_bwd, _per_out(4))
_NONLINEARITY_OPS = {kind: Op(f"nonlinearity({kind})", _nonlinearity_bwd, _per_out(4))
                     for kind in NONLINEARITIES}
# layer_norm's 13 ops, on chains 13, 2 and 1 long from x, gain and bias: 7
# take a flop per scalar of x, and the 6 on the row statistics 12 per row
_LAYER_NORM = Op("layer_norm", _layer_norm_bwd,
                 lambda v: 7 * v.data.size + 12 * (v.data.size // v.shape[-1]),
                 ops=_always(13), chains=_always((13, 2, 1)))
# affine with k pairs: k products and k adds; 2·m flops per output scalar for
# a product over width m, 1 for each add
_AFFINE = Op("affine", _affine_bwd,
             lambda v: sum(2 * x.shape[-1] + 1 for x in v.parents[:-1:2]) * v.data.size,
             ops=lambda v: len(v.parents) - 1, chains=_affine_chains)
# the LSTM cell's c: 3 slices, 2 sigmoids, a tanh, 2 muls and an add; h: a
# slice, a sigmoid, a tanh and a mul (flops per scalar of c or h)
_LSTM_C = Op("lstm_c", _lstm_c_bwd, _per_out(15), ops=_always(9), chains=_always((4, 2)))
_LSTM_H = Op("lstm_h", _lstm_h_bwd, _per_out(9), ops=_always(4), chains=_always((3, 2)))
# cross_entropy's 8 ops, all on one chain from x: 9 flops per scalar of x
# (exp 4) and 5 per row (log 4, + max 1)
_CROSS_ENTROPY = Op("cross_entropy", _cross_entropy_bwd,
                    lambda v: 9 * v.parents[0].data.size
                    + 5 * (v.parents[0].data.size // v.parents[0].shape[-1]),
                    ops=_always(8), chains=_always((8,)))


def _scaled(v: Value) -> int:
    """1 if an attention node's chain holds the ``* scale`` op, else 0."""
    return v._ctx[0] is not None


def _attention_chains(v: Value) -> tuple:
    # 8 ops from q and from each key (7 without the scale): the product, the
    # sum, the concat or reshape, the scale, softmax, reshape, matmul and
    # reshape; 3 from each value row: its concat, the matmul and the reshape
    t = len(v.parents) // 2
    return (7 + _scaled(v),) * (t + 1) + (3,) * t


def _attention_flops(v: Value) -> int:
    # per key: a product and a sum over q's B·dh scalars, the scale and the
    # softmax (4) per score, and the value matmul's 2 per output scalar
    q = v.parents[0]
    return len(v.parents) // 2 * (2 * q.data.size + (4 + _scaled(v)) * q.shape[0]
                                  + 2 * v.data.size)


# attention over t keys (2t + 1 parents): 2t + 6 ops, the cached kind 9,
# each one more with the scale
_ATTENTION = Op("attention", _attention_bwd, _attention_flops,
                ops=lambda v: len(v.parents) + 5 + _scaled(v), chains=_attention_chains)
_CACHED_ATTENTION = Op("cached_attention", _cached_attention_bwd, _attention_flops,
                       ops=lambda v: 9 + _scaled(v), chains=_attention_chains)
# RWKV's decay: elu_plus_one (4 flops per scalar), the negation (1) and exp
# (4); its output: u + k, exp, bonus * v, two adds and the divide (9 in all),
# on chains 5 long from u and k, 3 from v and 2 from a and b; the decayed
# sum: one or two muls and an add, on chains 2 long, or 1 from an x alone
_RWKV_DECAY = Op("rwkv_decay", _rwkv_decay_bwd, _per_out(9), ops=_always(3),
                 chains=_always((3,)))
_RWKV_OUTPUT = Op("rwkv_output", _rwkv_output_bwd, _per_out(9), ops=_always(6),
                  chains=_always((5, 5, 3, 2, 2)))
_DECAYED_SUM = Op("decayed_sum", _decayed_sum_bwd, lambda v: (len(v.parents) - 1) * v.data.size,
                  ops=lambda v: len(v.parents) - 1,
                  chains=lambda v: (2, 2, 2, 2) if len(v.parents) == 4 else (2, 2, 1))
# a + k (x) v: two reshapes, a matmul of inner width 1 (2 flops per output
# scalar) and the add (1), on chains 1 long from a and 3 from k and v; with
# no state, 3 ops on chains 2 long
_OUTER_UPDATE = Op("outer_update", _outer_update_bwd,
                   lambda v: len(v.parents) * v.data.size,
                   ops=lambda v: len(v.parents) + 1,
                   chains=lambda v: (1, 3, 3) if len(v.parents) == 3 else (2, 2))
# (q a) / (q . b): q's reshape, a matmul over dh (2·dh per output scalar),
# its reshape, q * b and the row sum (one flop per scalar of q each) and the
# divide (1), on chains 4 long from q and 3 from a and b
_LINEAR_READOUT = Op("linear_readout", _linear_readout_bwd,
                     lambda v: (2 * v.parents[0].shape[-1] + 1) * v.data.size
                     + 2 * v.parents[0].data.size,
                     ops=_always(6), chains=_always((4, 3, 3)))
_CONCAT = Op("concat", _concat_bwd, _per_out(0))
_VIEW_SLICE = Op("slice", _slice_bwd, _per_out(0))
_GATHER = Op("slice", _gather_bwd, _per_out(0))
_RESHAPE = Op("reshape", _reshape_bwd, _per_out(0))
_SUM = Op("sum", _sum_bwd, lambda v: v.parents[0].data.size)


def topo_nodes(*roots: Value) -> list[Value]:
    """All nodes reachable from any of ``roots``, ordered by increasing id."""
    seen: dict[int, Value] = {}
    stack = list(roots)
    while stack:
        v = stack.pop()
        if v.id in seen:
            continue
        seen[v.id] = v
        stack.extend(v.parents)
    return [seen[i] for i in sorted(seen)]


@graph_scope()
def backward(root: Value) -> None:
    """Add d(root)/d(node) into ``grad`` of every node reachable from ``root``.

    ``root`` must be scalar.  Each node's gradient array is allocated the
    first time this pass adds to it.  Calling twice without ``zero_grad``
    accumulates exactly one more unit seed: gradients held from an earlier
    call are set aside while this call's adjoints propagate, then added back.
    """
    if root.data.shape != ():
        raise ShapeError("backward", root.shape, ())
    order = topo_nodes(root)
    held = [(node, node._grad) for node in order if node._grad is not None]
    for node, _ in held:
        node._grad = None
    root._grad = np.ones(())
    for node in reversed(order):
        bwd = node.op.backward
        if bwd is not None:
            bwd(node)
    # every node reachable from root received an adjoint above
    for node, prior in held:
        node._grad += prior


@dataclass
class GradReport:
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float


def grad_check(f: Callable[[list[Value]], Value], point: Sequence[np.ndarray],
               eps: float = 1e-5) -> GradReport:
    """Central-difference check of ``f``'s gradient at ``point``.

    ``f`` receives freshly built input Values and must return a scalar Value.
    Relative error per coordinate is |a - n| / max(1, |a|, |n|).
    """
    if not (0 < eps <= 1e-2):
        raise TensorError(f"eps {eps} outside (0, 1e-2]")
    point = [np.asarray(p, dtype=np.float64) for p in point]

    def evaluate(arrs):
        vals = [constant(a) for a in arrs]
        return vals, f(vals)

    vals, out = evaluate(point)
    _, out2 = evaluate(point)
    if float(out.data) != float(out2.data):
        raise TensorError("f is non-deterministic across probe calls")
    backward(out)

    worst = GradReport(0.0, (), 0.0, 0.0)
    for pi, p in enumerate(point):
        for idx in np.ndindex(p.shape if p.shape else (1,)):
            key = idx if p.shape else ()
            bumped = [q.copy() for q in point]
            bumped[pi][key] += eps
            _, hi = evaluate(bumped)
            bumped[pi][key] -= 2 * eps
            _, lo = evaluate(bumped)
            numeric = (float(hi.data) - float(lo.data)) / (2 * eps)
            analytic = float(vals[pi].grad[key])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            if rel > worst.max_rel_err:
                worst = GradReport(rel, (pi,) + key, analytic, numeric)
    return worst
