"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation creates one graph node (a ``Value``).  Node ids are globally
monotonic, so parent ids are always strictly smaller than the child id and the
graph is acyclic by construction.  Each op kind is declared once, as an ``Op``
in the table after the op functions: its name, its backward function and what
the profiler counts for one node, whatever the tensor sizes.  Some kinds are
fused, and compute, differentiate and overflow-check exactly as the
elementary nodes they replace would, byte for byte:

- ``layer_norm`` (13 ops), ``affine`` (k matmuls and k adds for k = 1 to 3
  pairs) and a Transformer layer's residual adds and FFN, ``ffn_sublayer``
  (20: the attention's residual add, layer norm, affine map, nonlinearity,
  affine map and residual add);
- ``lstm_cell``'s two nodes ``lstm_c`` (9 ops) and ``lstm_h`` (4), and
  ``cross_entropy`` (8);
- softmax attention of one query row over t keys, for all of its heads:
  ``attention`` (2t + 6 ops per head, a product and a sum per key) and
  ``cached_attention`` (9 per head, the keys scored in one broadcast
  product), each one op more per head with a scale, and with more than one
  head the query's splits and the heads' concat; both read every head's
  keys and values from stacked arrays that the caller keeps beside the
  rows, so their forward does not restack t rows;
- RWKV's recurrent update, ``rwkv_decay`` (3 ops), ``rwkv_output`` (6) and
  ``decayed_sum`` (2, or 3 with a weighted new term), and the linear
  Transformer's, for all heads: ``outer_update`` (4 per head, or 3 with no
  state yet, and the value's splits), ``key_sum`` (an add per head) and
  ``linear_readout`` (6 per head, and the query's splits and the heads'
  concat);
- ``split_row``, a row's slice, heads' splits and reshapes, for a row that
  more than one node reads as heads: attention's key and value rows and
  linear attention's key.

An all-heads kind adds head i's gradient into columns i·d/n_heads on of a
full-width parent.  Into the query, or the value of ``outer_update``, it
adds through a zero-filled buffer as the split's backward did; that split
was read by this node alone.  A split that several nodes read is a
``split_row`` node, which sums what they add, as the split did, before it
adds into its source.  So gradients keep the chain's bytes whatever else
reads the source.

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

import functools
import gc
import itertools
from contextlib import contextmanager, nullcontext
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
    "ffn_sublayer",
    "lstm_cell",
    "cross_entropy",
    "attention",
    "cached_attention",
    "split_row",
    "rwkv_decay",
    "rwkv_output",
    "decayed_sum",
    "outer_update",
    "key_sum",
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
    """Pause the cyclic collector and numpy's overflow, invalid-value and
    division warnings while a graph is built or walked, and check small
    nodes' finite values in batches; use as ``with graph_scope():`` or as the
    decorator ``@graph_scope()``.

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
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


_QUIET = nullcontext()


def _quiet():
    """Silence numpy's overflow, invalid-value and division warnings around
    an op's arithmetic, whose non-finite results the node's own check
    reports: an ``np.errstate`` outside any scope, and nothing inside one,
    which has silenced them already."""
    return _QUIET if _depth else np.errstate(over="ignore", invalid="ignore", divide="ignore")


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
    with _quiet():
        return _binary(_DIVIDE, a, b, np.divide)


def _matmul_grads(ad: np.ndarray, bd: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of ``ad @ bd`` under output gradient ``g``, each of its
    operand's shape: the rule of a matmul node, and of each product in
    ``affine`` and ``ffn_sublayer``."""
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
    return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)


def _matmul_grad(a: Value, b: Value, g: np.ndarray) -> None:
    """Add the gradients of ``a @ b`` under output gradient ``g`` into ``a``
    and ``b``."""
    ga, gb = _matmul_grads(a.data, b.data, g)
    _accumulate(a, ga)
    _accumulate(b, gb)


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
    with _quiet():
        data = np.exp(a.data)
    return Value(data, _EXP, (a,))


def _log_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad / a.data)


def log(a: Value) -> Value:
    # log(0) and log(x < 0) yield -inf/nan; the node's finite check then
    # raises GraphOverflowError with this node's id
    with _quiet():
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


def _layer_norm_grads(gain: Value, bias: Value, ctx: tuple, g: np.ndarray) -> tuple:
    """The backward steps of the 13 elementary nodes that ``layer_norm``
    fuses, under output gradient ``g``, in their reverse creation order and
    with the same arithmetic, so every gradient keeps its bytes: adds
    ``gain``'s and ``bias``'s gradients and returns the input's two
    contributions, in the order the chain added them; the constants'
    gradients are skipped, since nothing reads them.  ``ctx`` is what
    ``_normalize`` returned beside the output."""
    centered, inv_std, var_eps, normed = ctx
    inv_d = 1.0 / centered.shape[-1]
    _accumulate(bias, _unbroadcast(g, bias.shape))                 # + bias
    _accumulate(gain, _unbroadcast(g * normed, gain.shape))        # * gain
    g_normed = g * gain.data
    g_centered = g_normed * inv_std                                # * inv_std
    g_inv_std = _unbroadcast(g_normed * centered, inv_std.shape)
    g_var = g_inv_std * inv_std * -0.5 / var_eps                   # exp, * -0.5, log
    g_sq = np.broadcast_to(g_var * inv_d, centered.shape)          # + eps, * 1/d, sum
    g_centered = g_centered + g_sq * centered                      # square, one
    g_centered += g_sq * centered                                  # operand at a time
    g_mean = _unbroadcast(-g_centered, inv_std.shape)              # x - mean
    return g_centered, np.broadcast_to(g_mean * inv_d, centered.shape)   # * 1/d, sum


def _layer_norm_bwd(out):
    x, gain, bias = out.parents
    for part in _layer_norm_grads(gain, bias, out._ctx, out._grad):
        _accumulate(x, part)


def _normalize(xd: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float) -> tuple:
    """``layer_norm``'s forward on arrays: (output, (centered, inv_std, var +
    eps, normed)), for its backward; the caller silences numpy's warnings."""
    inv_d = 1.0 / xd.shape[-1]
    mean = xd.sum(axis=-1, keepdims=True) * inv_d
    centered = xd - mean
    var_eps = (centered * centered).sum(axis=-1, keepdims=True) * inv_d + eps
    inv_std = np.exp(np.log(var_eps) * -0.5)
    normed = centered * inv_std
    return normed * gain + bias, (centered, inv_std, var_eps, normed)


def _check_norm(x: Value, gain: Value, bias: Value, op: "Op") -> None:
    """Raise ``ShapeError`` unless ``gain`` and ``bias`` are (d,) for ``x``
    (..., d) with d > 0."""
    d = x.shape[-1] if x.data.ndim else 0
    if not d or gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(op.name, x.shape, gain.shape, bias.shape)


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
    _check_norm(x, gain, bias, _LAYER_NORM)
    with _quiet():
        data, ctx = _normalize(x.data, gain.data, bias.data, eps)
    out = Value(data, _LAYER_NORM, (x, gain, bias), ctx)
    if not np.isfinite(ctx[2]).all():
        _overflow(out)
    return out


def _ffn_sublayer_bwd(out):
    # replays the chain's backward steps in reverse creation order: the
    # residual add, the second affine map (bias, then product), the
    # nonlinearity, the first affine map, the layer norm and the first add;
    # the sum h + a takes the residual's gradient before the norm's two
    h, a, gain, bias, w1, b1, w2, b2 = out.parents
    deriv, ctx, y, pre, hidden = out._ctx
    g = out._grad
    g_sum = np.array(g)
    _accumulate(b2, _unbroadcast(g, b2.shape))
    g_hidden, g_w2 = _matmul_grads(hidden, w2.data, g)
    _accumulate(w2, g_w2)
    g_pre = g_hidden * deriv(pre, hidden)
    _accumulate(b1, _unbroadcast(g_pre, b1.shape))
    g_y, g_w1 = _matmul_grads(y, w1.data, g_pre)
    _accumulate(w1, g_w1)
    for part in _layer_norm_grads(gain, bias, ctx, g_y):
        g_sum += part
    _accumulate(h, g_sum)
    _accumulate(a, g_sum)


def ffn_sublayer(h: Value, a: Value, norm: tuple, first: tuple, second: tuple, nonlin: str,
                 eps: float) -> Value:
    """A Transformer layer's residual adds and FFN around the attention's
    output ``a``, on ``h`` (..., d) and ``a`` of its shape: with s = h + a,
    ``s + FFN(LN(s))``, ``norm`` the layer norm's (gain, bias), both (d,),
    and ``first`` and ``second`` the FFN's (W1 (d, f), b1 (f,)) and (W2 (f,
    d), b2 (d,)), the nonlinearity ``nonlin`` between them; one node with
    parents (h, a, gain, bias, W1, b1, W2, b2).

    One node for the chain of 20 elementary ops: the attention's residual
    add, the layer norm's 13, a matmul and an add, the nonlinearity, a
    matmul and an add, and the FFN's residual add.  Data and gradients are
    byte-identical to that chain's.  The node raises ``GraphOverflowError``
    whenever a node of the chain would have: var + eps and the
    pre-activation are checked as well as the output, since an infinite
    variance leaves the norm finite and every nonlinearity maps +-inf to a
    finite value (relu only -inf); a non-finite sum h + a makes the
    variance non-finite, a non-finite norm the pre-activation, and a
    non-finite hidden row or second map the output.
    """
    (gain, bias), (w1, b1), (w2, b2) = norm, first, second
    _check_norm(h, gain, bias, _FFN_SUBLAYER)
    d, f = gain.shape[0], b1.shape[0] if b1.data.ndim == 1 else -1
    if (a.shape != h.shape or w1.shape != (d, f) or w2.shape != (f, d)
            or b2.shape != (d,)):
        raise ShapeError(_FFN_SUBLAYER.name, h.shape, a.shape, w1.shape, b1.shape, w2.shape,
                         b2.shape)
    if nonlin not in NONLINEARITIES:
        raise TensorError(f"unknown nonlinearity {nonlin!r}")
    fwd, deriv = NONLINEARITIES[nonlin]
    with _quiet():
        total = h.data + a.data
        y, ctx = _normalize(total, gain.data, bias.data, eps)
        pre = np.matmul(y, w1.data) + b1.data
        hidden = fwd(pre)
        data = total + (np.matmul(hidden, w2.data) + b2.data)
    out = Value(data, _FFN_SUBLAYER, (h, a, gain, bias, w1, b1, w2, b2),
                (deriv, ctx, y, pre, hidden))
    if not (np.isfinite(ctx[2]).all() and np.isfinite(pre).all()):
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
    with _quiet():
        shifted = xd - row_max
        e = np.exp(shifted)
        row_sum = e.sum(axis=-1, keepdims=True)
        diff = np.log(row_sum) + row_max - xd
        data = (diff * onehot).sum()
    out = Value(data, _CROSS_ENTROPY, (x,), (onehot, e, row_sum))
    if not np.isfinite(shifted).all():
        _overflow(out)
    return out


def _accumulate_heads(v: Value, parts: list, n_heads: int) -> None:
    """Add a chain's gradient contributions into a full-width row ``v`` that
    the chain read through its ``n_heads`` head splits.  ``parts[i]`` lists,
    in the order the chain added them, the contributions to ``v``'s i-th
    block of columns (one block may span every head).  At one head the chain
    read ``v`` itself and added each part into its gradient in turn; with
    more, each split's gradient is the sum of its parts, and each split adds
    it into ``v``'s zero-filled buffer."""
    if n_heads == 1:
        for g in parts[0]:
            _accumulate(v, g)
    else:
        buf = _grad_buffer(v)
        buf += _side_by_side([functools.reduce(np.add, p) for p in parts])


def _head(a: np.ndarray, i: int, n_heads: int) -> np.ndarray:
    """Head ``i`` of ``n_heads`` of the last axis of ``a``, a view."""
    if n_heads == 1:
        return a
    width = a.shape[-1] // n_heads
    return a[..., i * width:(i + 1) * width]


def _side_by_side(heads: list) -> np.ndarray:
    """The heads' arrays joined along the last axis, as the heads' concat."""
    return heads[0] if len(heads) == 1 else np.concatenate(heads, axis=-1)


def _split_row_bwd(out):
    # the reshapes pass the gradient on as is; each split, and a row's slice,
    # adds into its source's zero-filled buffer
    x = out.parents[0]
    n_heads, position, _ = out._ctx
    if position is None:
        _accumulate_heads(x, [[out._grad]], n_heads)
    else:
        _grad_buffer(x)[:, position] += out._grad


def split_row(x: Value, n_heads: int, position: int | None = None,
              rows: bool = False) -> Value:
    """A row that the all-heads kinds read as ``n_heads`` heads: ``x`` (B,
    d) itself, or its row ``position`` if ``x`` is (B, L, d); one node with
    data (B, d) and parent ``x``.

    One node for the chain that built the heads one node each: the row's
    slice (with a ``position``), the n_heads splits of width d / n_heads
    (none at one head) and, with ``rows``, each head's reshape to (B, 1,
    d / n_heads).  With none of these (one head, no ``position``, no
    ``rows``) the chain is empty and ``x`` itself is returned.  The
    all-heads kinds read head i from columns i·d/n_heads on, and add head
    i's gradient there, so gradients keep the chain's bytes.
    """
    xd = x.data
    if position is not None:
        if xd.ndim != 3 or not 0 <= position < xd.shape[1]:
            raise ShapeError(_SPLIT_ROW.name, x.shape, position)
        xd = xd[:, position]
    if xd.ndim != 2 or n_heads < 1 or xd.shape[-1] % n_heads:
        raise ShapeError(_SPLIT_ROW.name, x.shape, n_heads)
    if n_heads == 1 and position is None and not rows:
        return x
    return Value(xd, _SPLIT_ROW, (x,), (n_heads, position, rows))


def _attend(op: Op, q: Value, keys: Sequence[Value], values: Sequence[Value], key_array,
            value_array, n_heads: int, scale) -> Value:
    """The forward both attention kinds share: the query row q (B, d) split
    into ``n_heads`` heads of width dh; head i scored against the t keys
    stacked in ``key_array[:, i]`` (B, t, dh), scaled, softmaxed and mixed
    over the t values stacked in ``value_array[:, i]`` (B, t, dv); the heads'
    outputs side by side, (B, n_heads·dv), as one node with parents (q,
    keys..., values...).  The rows are not read: the caller guarantees that
    ``key_array[:, i, j]`` and ``value_array[:, i, j]`` hold head i of key
    and value row j, so the check is O(1) in t."""
    parents = (q, *keys, *values)
    t = len(keys)
    b, d = q.shape if q.data.ndim == 2 else (0, 0)
    if (not b or not t or len(values) != t or n_heads < 1 or d % n_heads
            or key_array.shape != (b, n_heads, t, d // n_heads)
            or value_array.ndim != 4 or value_array.shape[:3] != (b, n_heads, t)):
        raise ShapeError(op.name, *(v.shape for v in parents), key_array.shape,
                         value_array.shape)
    weights, outs, finite = [], [], True
    with _quiet():
        for i in range(n_heads):
            scores = (_head(q.data, i, n_heads)[:, None, :] * key_array[:, i]).sum(axis=-1)
            if scale is not None:
                scores = scores * scale
            shifted = scores - scores.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            w = e / e.sum(axis=-1, keepdims=True)                             # (B, t)
            mixed = np.matmul(w.reshape((b, 1, t)), value_array[:, i])
            outs.append(mixed.reshape((b, value_array.shape[-1])))
            weights.append(w)
            finite = finite and np.isfinite(scores).all()
    # the parallel kind's arrays are views of the projections; the cached
    # kind's are each step's own, O(t·d) floats per node, and its backward
    # restacks them from the rows instead
    kept = (key_array, value_array) if op is _ATTENTION else ()
    out = Value(_side_by_side(outs), op, parents, (scale, n_heads, weights, *kept))
    if not finite:
        _overflow(out)
    return out


def _operand_arrays(out) -> tuple:
    """The (B, n_heads, t, dh) key and value arrays an attention node read:
    kept on the node, or stacked again from its rows as the caller stacked
    them."""
    _, n_heads, _, *kept = out._ctx
    if kept:
        return tuple(kept)
    t = len(out.parents) // 2
    return tuple(np.stack([r.data.reshape((r.shape[0], n_heads, -1)) for r in rows], axis=2)
                 for rows in (out.parents[1:t + 1], out.parents[t + 1:]))


def _mix_bwd(out, i: int, value_array) -> tuple:
    """The backward steps both attention kinds share for head ``i``, in
    reverse creation order: the heads' concat, the output reshape, the value
    matmul and the weights' reshape, the value concat, the softmax and the
    scale; returns (the scores' gradient, the stacked values' gradient)."""
    scale, n_heads, weights = out._ctx[:3]
    w, values = weights[i], value_array[:, i]
    b, t = w.shape
    g = _head(out._grad, i, n_heads).reshape((b, 1, values.shape[-1]))
    g_weights = np.matmul(g, np.swapaxes(values, -1, -2)).reshape((b, t))
    g_values = np.matmul(np.swapaxes(w.reshape((b, 1, t)), -1, -2), g)
    g_scores = w * (g_weights - (g_weights * w).sum(axis=-1, keepdims=True))
    return (g_scores if scale is None else g_scores * scale), g_values


def _attention_grads(out, head_grads, last_key_first: bool) -> None:
    """The backward both attention kinds share: per head, the value mix and
    then ``head_grads(g_scores, q_i, k_i)``, the kind's scoring chain, which
    returns q's contributions in its chain's order and the keys' (B, t, dh)
    gradient; then every head's gradient at once into the value rows, q and
    the key rows, the keys in the chain's order."""
    n_heads = out._ctx[1]
    key_array, value_array = _operand_arrays(out)
    q, *keys = out.parents[:len(out.parents) // 2 + 1]
    values = out.parents[len(keys) + 1:]
    g_q, g_keys, g_values = [], [], []
    for i in range(n_heads):
        g_scores, g_vals = _mix_bwd(out, i, value_array)
        q_parts, g_k = head_grads(g_scores, _head(q.data, i, n_heads), key_array[:, i])
        g_q.append(q_parts)
        g_keys.append(g_k)
        g_values.append(g_vals)
    g_values = _side_by_side(g_values)
    for j, v in enumerate(values):
        _accumulate(v, g_values[:, j])
    _accumulate_heads(q, g_q, n_heads)
    g_keys = _side_by_side(g_keys)
    for j in (range(len(keys) - 1, -1, -1) if last_key_first else range(len(keys))):
        _accumulate(keys[j], g_keys[:, j])


def _per_key_grads(g_scores, q_i, k_i) -> tuple:
    # the per-key chain: the scores' concat and sums, and each product from
    # the last key to the first, adding to q and then to the key
    return ([g_scores[:, j:j + 1] * k_i[:, j] for j in range(k_i.shape[1] - 1, -1, -1)],
            g_scores[..., None] * q_i[:, None, :])


def _cached_grads(g_scores, q_i, k_i) -> tuple:
    # the cached chain: the sum, the broadcast product (q's gradient an
    # unbroadcast sum over the cache), q's reshape and the keys' concat
    b, dh = q_i.shape
    g_product = np.broadcast_to(g_scores[..., None], k_i.shape)
    return ([_unbroadcast(g_product * k_i, (b, 1, dh)).reshape((b, dh))],
            g_product * q_i.reshape((b, 1, dh)))


def _attention_bwd(out):
    _attention_grads(out, _per_key_grads, last_key_first=True)


def _cached_attention_bwd(out):
    _attention_grads(out, _cached_grads, last_key_first=False)


def attention(q: Value, keys: Sequence[Value], values: Sequence[Value], key_array,
              value_array, n_heads: int, scale) -> Value:
    """Softmax attention of one query row ``q`` (B, d), split into
    ``n_heads`` heads of width dh, over t ``keys`` and t ``values``;
    returns the heads' outputs side by side, (B, n_heads·dv).  The rows are
    ``split_row`` nodes, or any Values whose head i the arrays hold:
    ``key_array`` (B, n_heads, t, dh) and ``value_array`` (B, n_heads, t,
    dv) are read in their place, ``key_array[:, i, j]`` head i of key row
    j's data and ``value_array[:, i, j]`` head i of value row j's, and only
    their shapes are checked, so a caller that holds the rows as columns of
    one array passes a view of it.

    One node for the chain that split q into its heads, scored every key of
    each head on its own and joined the heads: per head a product and a row
    sum per key, the scores' concat, ``* scale`` unless ``scale`` is None, a
    softmax, the values' concat, a reshape, a matmul and a reshape, 2t + 6
    ops (2t + 7 with the scale); and with more than one head, q's n_heads
    splits and the heads' concat.  Data and gradients are byte-identical to
    that chain's.  The node raises ``GraphOverflowError`` whenever a node of
    the chain would have: the softmax leaves non-finite scores' output
    finite, so every head's scores are checked as well as the output.
    """
    return _attend(_ATTENTION, q, keys, values, key_array, value_array, n_heads, scale)


def cached_attention(q: Value, key_rows: Sequence[Value], value_rows: Sequence[Value],
                     key_array, value_array, n_heads: int, scale) -> Value:
    """Softmax attention of one query ``q`` (B, d), split into ``n_heads``
    heads, over a KV cache of t ``key_rows`` and t ``value_rows``; returns
    (B, n_heads·dv), equal to ``attention``'s element for element.  The rows
    and arrays are as in ``attention``, but a cache's arrays are each step's
    own copies, so the node does not keep them: its backward stacks the
    rows' data again.

    One node for the chain that scored each head's stacked cache in one
    broadcast product: per head the keys' concat, q's reshape, the product,
    a row sum, ``* scale`` unless ``scale`` is None, and the same softmax and
    value mix as ``attention``, 9 ops (10 with the scale) whatever t is; and
    with more than one head, q's splits and the heads' concat.  Data and
    gradients are byte-identical to that chain's, whose gradients differ
    from ``attention``'s chain in the last bits; scores and output are
    checked as in ``attention``.
    """
    return _attend(_CACHED_ATTENTION, q, key_rows, value_rows, key_array, value_array,
                   n_heads, scale)


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
        with _quiet():
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
    # replays, per head, the add (if any), the outer product and the two
    # reshapes, the value's after the key's in creation order: a, v and k
    # receive theirs, and the splits of v add them into its row
    *a, k, v = out.parents
    n_heads = out._ctx
    g = out._grad
    if a:
        _accumulate(a[0], g)
    g_k, g_v = [], []
    for i in range(n_heads):
        k_i, v_i, g_i = _head(k.data, i, n_heads), _head(v.data, i, n_heads), g[:, i]
        (batch, dh), dv = k_i.shape, v_i.shape[-1]
        rk, rv = k_i.reshape((batch, dh, 1)), v_i.reshape((batch, 1, dv))
        g_v.append([np.matmul(np.swapaxes(rk, -1, -2), g_i).reshape(v_i.shape)])
        g_k.append(np.matmul(g_i, np.swapaxes(rv, -1, -2)).reshape(k_i.shape))
    _accumulate_heads(v, g_v, n_heads)
    _accumulate(k, _side_by_side(g_k))


def outer_update(a: Value | None, k: Value, v: Value, n_heads: int) -> Value:
    """``a + k (x) v`` per head: head i's outer product of ``k`` (B, d) and
    ``v`` (B, dv), both read as ``n_heads`` heads, at ``[:, i]`` of a (B,
    n_heads, d / n_heads, dv / n_heads) array, added to the state ``a`` of
    that shape, or alone when ``a`` is None; one node with parents (a, k,
    v) or (k, v).

    One node for the chain that split v into its heads and, per head, built
    two reshapes, a matmul and, with ``a``, an add: 4 ops per head, or 3,
    and n_heads splits with more than one head.  ``k`` holds the key's heads
    already: a ``split_row`` node, which ``key_sum`` and ``linear_readout``
    read too, as the chain's update, sum and read-out read the key's
    splits.  Data and gradients are byte-identical to that chain's; a
    non-finite product stays non-finite through the add of a finite ``a``,
    so the output's check raises whenever the chain's would.
    """
    batch = k.shape[0] if k.data.ndim == 2 else 0
    if (not batch or v.data.ndim != 2 or v.shape[0] != batch or n_heads < 1
            or k.shape[1] % n_heads or v.shape[1] % n_heads):
        raise ShapeError(_OUTER_UPDATE.name, k.shape, v.shape, n_heads)
    data = np.stack([np.matmul(_head(k.data, i, n_heads).reshape((batch, -1, 1)),
                               _head(v.data, i, n_heads).reshape((batch, 1, -1)))
                     for i in range(n_heads)], axis=1)
    if a is None:
        return Value(data, _OUTER_UPDATE, (k, v), n_heads)
    if a.shape != data.shape:
        raise ShapeError(_OUTER_UPDATE.name, a.shape, k.shape, v.shape, n_heads)
    return Value(a.data + data, _OUTER_UPDATE, (a, k, v), n_heads)


def key_sum(b: Value, k: Value, n_heads: int) -> Value:
    """``b + k``, linear attention's running sum ``b`` (B, d) of the
    feature-mapped keys with the next key ``k`` added; one node with parents
    (b, k).  Both hold ``n_heads`` heads side by side: ``k`` a ``split_row``
    node, ``b`` the first key's or an earlier sum.

    One node for the chain that added each of k's heads to b's, n_heads
    adds.  Data and gradients are byte-identical to that chain's.  The sum
    of finite rows can overflow, and the output's check raises as the
    chain's adds would.
    """
    if k.data.ndim != 2 or n_heads < 1 or k.shape[1] % n_heads or b.shape != k.shape:
        raise ShapeError(_KEY_SUM.name, b.shape, k.shape, n_heads)
    return Value(b.data + k.data, _KEY_SUM, (b, k), n_heads)


def _linear_readout_bwd(out):
    # replays, per head, the divide, the sum, q * b, the reshape, the matmul
    # and q's reshape in reverse creation order: q, b, a and then q again
    # receive their gradients, each head at once through the heads' concat
    # and the splits of q
    q, a, b = out.parents
    nums, dens = out._ctx
    n_heads = a.shape[1]
    g_q, g_a, g_b = [], [], []
    for i in range(n_heads):
        num, den = nums[i], dens[i]
        q_i, a_i, b_i = _head(q.data, i, n_heads), a.data[:, i], _head(b.data, i, n_heads)
        g = _head(out._grad, i, n_heads)
        g_num = _unbroadcast(g / den, num.shape)
        g_p = np.broadcast_to(_unbroadcast(-g * num / (den * den), den.shape), q_i.shape)
        (batch, dh), dv = q_i.shape, a_i.shape[-1]
        g_m = g_num.reshape((batch, 1, dv))
        rq = q_i.reshape((batch, 1, dh))
        g_rq = np.matmul(g_m, np.swapaxes(a_i, -1, -2))
        g_q.append([g_p * b_i, g_rq.reshape(q_i.shape)])
        g_b.append(g_p * q_i)
        g_a.append(np.matmul(np.swapaxes(rq, -1, -2), g_m))
    _accumulate(b, _side_by_side(g_b))
    _accumulate(a, np.stack(g_a, axis=1))
    _accumulate_heads(q, g_q, n_heads)


def linear_readout(q: Value, a: Value, b: Value) -> Value:
    """Linear attention's read-out ``(q a) / (q . b)`` per head of the query
    ``q`` (B, d) from the state ``a`` (B, n_heads, dh, dv) and ``b`` (B,
    d), q and b split into the n_heads heads of width dh = d / n_heads;
    returns the heads' read-outs side by side, (B, n_heads·dv).

    One node for the chain that split q into its heads, built per head q's
    reshape, the matmul with ``a`` and its reshape, q * b, the row sum and
    the divide, and joined the heads: 6 ops per head, and with more than one
    head q's n_heads splits and the heads' concat.  Data and gradients are
    byte-identical to that chain's.  The node raises ``GraphOverflowError``
    whenever a node of the chain would have: an infinite denominator leaves
    the quotient finite, so every head's is checked as well as the output.
    """
    batch, d = q.shape if q.data.ndim == 2 else (0, 0)
    if (not batch or a.data.ndim != 4 or b.shape != q.shape or a.shape[0] != batch
            or a.shape[1] * a.shape[2] != d):
        raise ShapeError(_LINEAR_READOUT.name, q.shape, a.shape, b.shape)
    n_heads, dh, dv = a.shape[1:]
    nums, dens, outs = [], [], []
    with _quiet():
        for i in range(n_heads):
            q_i = _head(q.data, i, n_heads)
            nums.append(np.matmul(q_i.reshape((batch, 1, dh)), a.data[:, i]).reshape((batch, dv)))
            dens.append((q_i * _head(b.data, i, n_heads)).sum(axis=-1, keepdims=True))
            outs.append(nums[-1] / dens[-1])
    out = Value(_side_by_side(outs), _LINEAR_READOUT, (q, a, b), (nums, dens))
    if not all(np.isfinite(den).all() for den in dens):
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
# the FFN sublayer's 20 ops: the first add, the layer norm's, then per
# scalar of the pre-activation (f per row) 2·d + 1 for the first map and 4
# for the nonlinearity, and per output scalar 2·f + 1 for the second map and
# 1 for each residual add; on chains 20 long from h and a, 8 from the
# norm's gain, 7 from its bias, 6 from W1, 5 from b1, 3 from W2 and 2 from b2
_FFN_SUBLAYER = Op("ffn_sublayer", _ffn_sublayer_bwd,
                   lambda v: _LAYER_NORM.flops(v) + (2 * v.shape[-1] + 5) * v._ctx[3].size
                   + (2 * v._ctx[3].shape[-1] + 3) * v.data.size,
                   ops=_always(20), chains=_always((20, 20, 8, 7, 6, 5, 3, 2)))
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


def _splits(n_heads: int) -> int:
    """The splits of one full-width operand into ``n_heads`` heads: none at
    one head.  ``_splits(n_heads) and 1`` is 1 where there are splits: the
    one concat that joins the heads again, and the one op that a split or
    the concat adds to a chain through it."""
    return n_heads if n_heads > 1 else 0


def _row_steps(v: Value) -> tuple:
    """A ``split_row`` node's chain, step by step: the nodes of its slice
    (0 or 1), of its splits (0 or n_heads) and of its reshapes (0 or
    n_heads); its chain is one op long per step that has any."""
    n_heads, position, rows = v._ctx
    return (int(position is not None), _splits(n_heads), n_heads if rows else 0)


def _scaled(v: Value) -> int:
    """1 if an attention node's chain holds the ``* scale`` op, else 0."""
    return v._ctx[0] is not None


def _attention_chains(v: Value) -> tuple:
    # per head, 8 ops from q and from each key (7 without the scale): the
    # product, the sum, the concat or reshape, the scale, softmax, reshape,
    # matmul and reshape; 3 from each value row: its concat, the matmul and
    # the reshape; with heads, q's split and the heads' concat, which every
    # row's chain also passes through
    t = len(v.parents) // 2
    s, m = _scaled(v), _splits(v._ctx[1]) and 1
    return (7 + s + 2 * m,) + (7 + s + m,) * t + (3 + m,) * t


def _attention_flops(v: Value) -> int:
    # per key and head: a product and a sum over q's B·dh scalars, the scale
    # and the softmax (4) per score, and the value matmul's 2 per output
    # scalar
    q = v.parents[0]
    return len(v.parents) // 2 * (2 * q.data.size + (4 + _scaled(v)) * q.shape[0] * v._ctx[1]
                                  + 2 * v.data.size)


# attention over t keys (2t + 1 parents): 2t + 6 ops per head, the cached
# kind 9, each one more with the scale, and q's splits and the heads' concat
# with more than one head
_ATTENTION = Op("attention", _attention_bwd, _attention_flops,
                ops=lambda v: v._ctx[1] * (len(v.parents) + 5 + _scaled(v))
                + _splits(v._ctx[1]) + (_splits(v._ctx[1]) and 1),
                chains=_attention_chains)
_CACHED_ATTENTION = Op("cached_attention", _cached_attention_bwd, _attention_flops,
                       ops=lambda v: v._ctx[1] * (9 + _scaled(v)) + _splits(v._ctx[1])
                       + (_splits(v._ctx[1]) and 1),
                       chains=_attention_chains)
# a row's slice, its splits and its reshapes: no flops
_SPLIT_ROW = Op("split_row", _split_row_bwd, _per_out(0), ops=lambda v: sum(_row_steps(v)),
                chains=lambda v: (sum(map(bool, _row_steps(v))),))
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


def _outer_update_chains(v: Value) -> tuple:
    # a's add; from k and v, each reshape, the matmul and the add (if any),
    # and from v its split before them (with heads)
    kv = len(v.parents)
    chains = (kv, kv + (_splits(v._ctx) and 1))
    return (1,) + chains if kv == 3 else chains


def _linear_readout_chains(v: Value) -> tuple:
    # 4 ops from q and 3 from a and b per head; with heads, the heads'
    # concat, and q's split before them
    m = _splits(v.parents[1].shape[1]) and 1
    return (4 + 2 * m, 3 + m, 3 + m)


# per head, a + k (x) v: two reshapes, a matmul of inner width 1 (2 flops per
# output scalar) and the add (1), or 3 ops with no state; with heads, v's
# splits (k's are its split_row's)
_OUTER_UPDATE = Op("outer_update", _outer_update_bwd,
                   lambda v: len(v.parents) * v.data.size,
                   ops=lambda v: v._ctx * (len(v.parents) + 1) + _splits(v._ctx),
                   chains=_outer_update_chains)
# per head, b + k (one flop per scalar); its backward is add's
_KEY_SUM = Op("key_sum", _add_bwd, _per_out(1), ops=lambda v: v._ctx,
              chains=_always((1, 1)))
# per head, (q a) / (q . b): q's reshape, a matmul over dh (2·dh per output
# scalar), its reshape, q * b and the row sum (one flop per scalar of q
# each) and the divide (1); with heads, q's splits and the heads' concat
_LINEAR_READOUT = Op("linear_readout", _linear_readout_bwd,
                     lambda v: (2 * v.parents[1].shape[2] + 1) * v.data.size
                     + 2 * v.parents[0].data.size,
                     ops=lambda v: 6 * v.parents[1].shape[1] + _splits(v.parents[1].shape[1])
                     + (_splits(v.parents[1].shape[1]) and 1),
                     chains=_linear_readout_chains)
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
