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
- softmax attention for all heads: ``attention``, a whole layer's causal
  attention at its queries, each query t as its row's slice and 2(t + 1) +
  6 ops per head (a product and a sum per key), with each key and value
  row's slice, splits and reshapes; and ``cached_attention``, one query
  over a KV cache of t rows (9 ops per head, the keys scored in one
  broadcast product); each one op more per head with a scale, and with more
  than one head the query's splits and the heads' concat.  Both score every
  (query, key) pair of every head in one product and sum, and run only each
  query's softmax sum and value mix on their own;
- the recurrent state of RWKV and the linear Transformer over a chunk of
  tokens, one scan node per layer that runs the recurrence token by token
  inside the node: ``rwkv_scan`` (per token the decay, the read-out and
  the update, 15 ops, and 2 for the first token's update) and
  ``linear_scan`` (per token the key's feature map and splits and every
  head's update and key sum, and per query the query's feature map and
  every head's read-out); see "the recurrent state scans" below;
- ``split_row``, a row's heads' splits and reshapes, for a row that more
  than one node reads as heads: a cached attention's key and value rows;
- per-position rows: ``embed_rows``, a chunk's embedding rows (a gather
  and a positional add per position) stacked position-major (n, B, d);
  ``position_rows``, a sequence's L row slices stacked position-major (L,
  B, d); ``stack_rows``, those rows' reshapes and concat back into (B, L,
  d); and ``pick``, a row or rows of such a stack, which stands for no op
  at all, since the chain held each row as a node of its own.

A ``stacked`` ``layer_norm``, ``affine`` or ``ffn_sublayer`` node is its
chain once per query, over (Lq, B, d) stacks of per-query rows with shared
weights; an ``affine`` without a bias is a stack of the chain's matmuls.
The layout keeps the bytes: numpy's stacked matmul makes one BLAS call per
leading index, so over (Lq, B, d) each call is one query's (B, d) @ W,
whereas over (B, L, d) it is a whole sequence's (L, d) @ W, which sums in
another order.  The weights take each query's gradient in turn, from the
last query to the first, as the chain's per-query nodes added them.  A
stack's rows may stand for chains of different lengths, such as a scan's
read-outs; ``Op`` says how a kind carries or places its rows' depths (see
``profiler.graph_profile``).

An all-heads kind adds head i's gradient into columns i·d/n_heads on of a
full-width parent.  Into the query it adds through a zero-filled buffer as
the split's backward did; that split was read by this node alone.  A split
that several nodes read is a ``split_row`` node, which sums what they add,
as the split did, before it adds into its source.  ``attention`` adds into
its (B, L, d) projections through zero-filled buffers, as the rows' slices
did.  A node that reads some rows of a stack, as ``pick`` and a scan that
resumes another's state do, adds into the stack's gradient through a
buffer of -0.0, the exact identity of addition.  So gradients keep the
chain's bytes whatever else reads the source, the sign of a zero included.

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

import bisect
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
    "position_rows",
    "stack_rows",
    "pick",
    "embed_rows",
    "rwkv_scan",
    "linear_scan",
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
    of one length per parent, since the chain may grow with the parents.

    A stack's rows, along its leading axis, may stand for chains of
    different lengths, and the profiler then holds one depth per row.  A
    ``rowwise`` kind builds each row of its output from the same row of
    each stacked parent, so a row's depth is its parents' rows' depths
    plus the ``chains``; a kind that mixes or picks rows places them
    itself: ``rows(node, depths)`` maps its parents' depths, each an int
    or a float array of one depth per row, to its own.  Such a kind is
    fused too, and needs no ``chains``: the profiler reads ``rows``
    first."""

    __slots__ = ("name", "backward", "flops", "ops", "chains", "rowwise", "rows")

    def __init__(self, name: str, backward: Callable | None,
                 flops: Callable[["Value"], int], ops=1,
                 chains: Callable[["Value"], tuple] | None = None, rowwise: bool = False,
                 rows: Callable | None = None):
        self.name = name
        self.backward = backward
        self.flops = flops
        self.ops = ops
        self.chains = chains
        self.rowwise = rowwise
        self.rows = rows

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


def _matmul_grads(ad: np.ndarray, bd: np.ndarray, g: np.ndarray, stacked: bool = False) -> tuple:
    """The gradients of ``ad @ bd`` under output gradient ``g``, each of its
    operand's shape: the rule of a matmul node, and of each product in
    ``affine`` and ``ffn_sublayer``.  For a stacked node (see
    ``_param_grad``) ``bd``'s gradient is left one per query, stacked."""
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
    return _unbroadcast(ga, ad.shape), gb if stacked else _unbroadcast(gb, bd.shape)


def _param_grad(v: Value, g: np.ndarray, stacked: bool) -> None:
    """Add ``g``, summed down to ``v``'s shape, into ``v``.  A stacked node
    holds one copy of its chain per query along its output's leading axis,
    and ``g`` one gradient per query there; each copy's node added its own
    into ``v`` in turn, from the last query to the first, and so does this."""
    for part in (g[::-1] if stacked else (g,)):
        _accumulate(v, _unbroadcast(part, v.shape))


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
    # add (if any), then each product from the last pair to the first; every
    # product has the output's shape, so each receives the output's gradient
    # as is
    operands, g, stacked = out.parents, out._grad, out._ctx
    if len(operands) % 2:
        *operands, bias = operands
        _param_grad(bias, g, stacked)
    for j in range(len(operands) - 2, -1, -2):
        x, w = operands[j], operands[j + 1]
        g_x, g_w = _matmul_grads(x.data, w.data, g, stacked)
        _accumulate(x, g_x)
        _param_grad(w, g_w, stacked)


def affine(pairs: Sequence[tuple], bias: Value | None, stacked: bool = False) -> Value:
    """``x0 @ W0 + x1 @ W1 + ... + bias`` for 1 to 3 (x, W) ``pairs``, summed
    left to right, as one node with parents (x0, W0, x1, W1, ..., bias);
    with ``bias`` None, the products' sum alone, with no bias parent.

    The products must all have the output's shape, so the bias may broadcast
    only into it.  Data and gradients are byte-identical to the chain of k
    matmul and k add nodes (k - 1 without a bias), and ``_AFFINE`` counts it
    as that chain.  A
    ``stacked`` node is one such chain per query: the x's are (Lq, B, d)
    stacks of per-query rows, the W's and the bias shared, and numpy's
    stacked product makes each query's (B, d) @ W product as the chain's
    node did.  A non-finite product or partial sum stays non-finite through
    the adds, so the output's check raises whenever a node of the chain
    would have.
    """
    if not 1 <= len(pairs) <= 3:
        raise TensorError(f"affine takes 1 to 3 pairs, got {len(pairs)}")
    parents = tuple(v for pair in pairs for v in pair) + (() if bias is None else (bias,))
    try:
        products = [np.matmul(x.data, w.data) for x, w in pairs]
        data = products[0]
        for product in products[1:]:
            data = data + product
        if bias is not None:
            data = data + bias.data
    except ValueError as err:
        raise ShapeError(_AFFINE.name, *(v.shape for v in parents)) from err
    if any(product.shape != data.shape for product in products) or stacked and (
            data.ndim != 3 or any(w.data.ndim != 2 for _, w in pairs)):
        raise ShapeError(_AFFINE.name, *(v.shape for v in parents))
    return Value(data, _AFFINE, parents, stacked)


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


def _layer_norm_grads(gain: Value, bias: Value, ctx: tuple, g: np.ndarray,
                      stacked: bool = False) -> tuple:
    """The backward steps of the 13 elementary nodes that ``layer_norm``
    fuses, under output gradient ``g``, in their reverse creation order and
    with the same arithmetic, so every gradient keeps its bytes: adds
    ``gain``'s and ``bias``'s gradients and returns the input's two
    contributions, in the order the chain added them; the constants'
    gradients are skipped, since nothing reads them.  ``ctx`` is what
    ``_normalize`` returned beside the output; ``stacked`` as in
    ``_param_grad``."""
    centered, inv_std, var_eps, normed = ctx
    inv_d = 1.0 / centered.shape[-1]
    _param_grad(bias, g, stacked)                                  # + bias
    _param_grad(gain, g * normed, stacked)                         # * gain
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
    *ctx, stacked = out._ctx
    for part in _layer_norm_grads(gain, bias, ctx, out._grad, stacked):
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


def layer_norm(x: Value, gain: Value, bias: Value, eps: float, stacked: bool = False) -> Value:
    """Normalize ``x`` over its last axis to zero mean and unit variance,
    then scale by ``gain`` and shift by ``bias``, both of shape (d,).

    One node for 13 elementary ops: sum, * 1/d, sub, square, sum, * 1/d,
    + eps, log, * -0.5, exp (so 1/sqrt(var + eps) is exp(-log(var + eps)/2)),
    * inv_std, * gain and + bias.  A ``stacked`` node is one such chain per
    row of an (L, B, d) stack, as ``affine``'s.  Data and gradients are
    byte-identical to the chain's, and ``_LAYER_NORM`` counts it as the
    chain.  The node raises ``GraphOverflowError`` whenever a node of the
    chain would have: an infinite variance makes inv_std 0 and the output
    finite, so var + eps is checked as well as the output.
    """
    _check_norm(x, gain, bias, _LAYER_NORM)
    if stacked and x.data.ndim != 3:
        raise ShapeError(_LAYER_NORM.name, x.shape, gain.shape, bias.shape)
    with _quiet():
        data, ctx = _normalize(x.data, gain.data, bias.data, eps)
    out = Value(data, _LAYER_NORM, (x, gain, bias), (*ctx, stacked))
    if not np.isfinite(ctx[2]).all():
        _overflow(out)
    return out


def _ffn_sublayer_bwd(out):
    # replays the chain's backward steps in reverse creation order: the
    # residual add, the second affine map (bias, then product), the
    # nonlinearity, the first affine map, the layer norm and the first add;
    # the sum h + a takes the residual's gradient before the norm's two
    h, a, gain, bias, w1, b1, w2, b2 = out.parents
    deriv, ctx, y, pre, hidden, stacked = out._ctx
    g = out._grad
    g_sum = np.array(g)
    _param_grad(b2, g, stacked)
    g_hidden, g_w2 = _matmul_grads(hidden, w2.data, g, stacked)
    _param_grad(w2, g_w2, stacked)
    g_pre = g_hidden * deriv(pre, hidden)
    _param_grad(b1, g_pre, stacked)
    g_y, g_w1 = _matmul_grads(y, w1.data, g_pre, stacked)
    _param_grad(w1, g_w1, stacked)
    for part in _layer_norm_grads(gain, bias, ctx, g_y, stacked):
        g_sum += part
    _accumulate(h, g_sum)
    _accumulate(a, g_sum)


def ffn_sublayer(h: Value, a: Value, norm: tuple, first: tuple, second: tuple, nonlin: str,
                 eps: float, stacked: bool = False) -> Value:
    """A Transformer layer's residual adds and FFN around the attention's
    output ``a``, on ``h`` (..., d) and ``a`` of its shape: with s = h + a,
    ``s + FFN(LN(s))``, ``norm`` the layer norm's (gain, bias), both (d,),
    and ``first`` and ``second`` the FFN's (W1 (d, f), b1 (f,)) and (W2 (f,
    d), b2 (d,)), the nonlinearity ``nonlin`` between them; one node with
    parents (h, a, gain, bias, W1, b1, W2, b2).

    One node for the chain of 20 elementary ops: the attention's residual
    add, the layer norm's 13, a matmul and an add, the nonlinearity, a
    matmul and an add, and the FFN's residual add.  A ``stacked`` node is
    one such chain per query: ``h`` and ``a`` are (Lq, B, d) stacks of
    per-query rows, the weights shared, and numpy's stacked products make
    each query's (B, d) @ W1 and (B, f) @ W2 as the chain's nodes did.  Data
    and gradients are byte-identical to that chain's.  The node raises
    ``GraphOverflowError`` whenever a node of the chain would have: var +
    eps and the pre-activation are checked as well as the output, since an
    infinite variance leaves the norm finite and every nonlinearity maps
    +-inf to a finite value (relu only -inf); a non-finite sum h + a makes
    the variance non-finite, a non-finite norm the pre-activation, and a
    non-finite hidden row or second map the output.
    """
    (gain, bias), (w1, b1), (w2, b2) = norm, first, second
    _check_norm(h, gain, bias, _FFN_SUBLAYER)
    d, f = gain.shape[0], b1.shape[0] if b1.data.ndim == 1 else -1
    if (a.shape != h.shape or w1.shape != (d, f) or w2.shape != (f, d)
            or b2.shape != (d,) or stacked and h.data.ndim != 3):
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
                (deriv, ctx, y, pre, hidden, stacked))
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
    the chain read through its ``n_heads`` head splits.  ``parts`` lists, in
    the order the chain added them, (B, n_heads, dh) contributions, head i
    at ``[:, i]``.  At one head the chain read ``v`` itself and added each
    part into its gradient in turn; with more, each split's gradient is the
    sum of its parts, and each split adds it into ``v``'s zero-filled
    buffer."""
    if n_heads == 1:
        for g in parts:
            _accumulate(v, g.reshape(v.shape))
    else:
        buf = _grad_buffer(v)
        buf += functools.reduce(np.add, parts).reshape(v.shape)


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., d) as (..., n_heads, d / n_heads), head i at ``[..., i, :]``; a
    view."""
    return a.reshape(a.shape[:-1] + (n_heads, -1))


def _split_row_bwd(out):
    # the reshapes pass the gradient on as is; each split adds into its
    # source's zero-filled buffer
    _accumulate_heads(out.parents[0], [out._grad], out._ctx[0])


def split_row(x: Value, n_heads: int, rows: bool = False) -> Value:
    """A row ``x`` (B, d) that the all-heads kinds read as ``n_heads`` heads;
    one node with ``x``'s data and parent ``x``.

    One node for the chain that built the heads one node each: the n_heads
    splits of width d / n_heads (none at one head) and, with ``rows``, each
    head's reshape to (B, 1, d / n_heads).  With neither (one head, no
    ``rows``) the chain is empty and ``x`` itself is returned.  The
    all-heads kinds read head i from columns i·d/n_heads on, and add head
    i's gradient there, so gradients keep the chain's bytes.
    """
    if x.data.ndim != 2 or n_heads < 1 or x.shape[-1] % n_heads:
        raise ShapeError(_SPLIT_ROW.name, x.shape, n_heads)
    if n_heads == 1 and not rows:
        return x
    return Value(x.data, _SPLIT_ROW, (x,), (n_heads, rows))


def _position_rows_bwd(out):
    # each row's slice adds into its source's zero-filled buffer
    _grad_buffer(out.parents[0])[...] += out._grad.transpose(1, 0, 2)


def position_rows(x: Value) -> Value:
    """The rows of a sequence ``x`` (B, L, d) at every position, stacked
    position-major: (L, B, d), row t equal to ``x[:, t]``; one node with
    parent ``x``.  One node for the chain of L slices that took the rows
    one node each, L ops on a chain 1 long; gradients keep its bytes."""
    if x.data.ndim != 3:
        raise ShapeError(_POSITION_ROWS.name, x.shape)
    return Value(np.ascontiguousarray(x.data.transpose(1, 0, 2)), _POSITION_ROWS, (x,))


def _stack_rows_bwd(out):
    # the concat hands each row its block, and its reshape passes it on
    _accumulate(out.parents[0], np.ascontiguousarray(out._grad.transpose(1, 0, 2)))


def stack_rows(h: Value) -> Value:
    """The rows of ``h`` (L, B, d), one per position, as one sequence (B, L,
    d); one node with parent ``h``.  One node for the chain that reshaped
    each row to (B, 1, d) and concatenated them along axis 1, L + 1 ops on
    a chain 2 long; gradients keep its bytes."""
    if h.data.ndim != 3:
        raise ShapeError(_STACK_ROWS.name, h.shape)
    return Value(np.ascontiguousarray(h.data.transpose(1, 0, 2)), _STACK_ROWS, (h,))


def _pick_bwd(out):
    # a buffer of -0.0, the one exact identity of addition, leaves every
    # row's gradient as the chain's node held it, zero signs included
    _add_rows(out.parents[0], out._ctx, out._grad)


def pick(stack: Value, index) -> Value:
    """Row ``index`` (an int) or rows ``index`` (a sorted sequence of
    distinct ints) of a query-major ``stack``; one node with parent
    ``stack``.  The chain held each query's row as a node of its own, so
    the pick stands for no op: 0 ops on a chain 0 long.  Its gradient
    leaves the stack's rows as the chain's nodes held theirs, so a stacked
    node reads each row's gradient with the chain's bytes; a row that no
    reader reaches holds -0.0."""
    if not isinstance(index, int):
        index = np.asarray(index, dtype=np.intp)
    try:
        data = stack.data[index]
    except IndexError as err:
        raise ShapeError(_PICK.name, stack.shape, index) from err
    return Value(data, _PICK, (stack,), index)


def _layer_heads(projections, n_heads: int) -> tuple:
    """The (B, H, L, dh) heads of a layer's (B, L, d) projections q, k and
    v: views of q and k, and v's copied to contiguous memory, as the chain's
    concat of each head's value rows stacked them; numpy's products over
    strided value rows add in another order when dh < 4."""
    q, k, v = (_heads(p.data, n_heads).transpose(0, 2, 1, 3) for p in projections)
    return q, k, np.ascontiguousarray(v)


def _softmax_mix(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, scale, last) -> tuple:
    """Softmax attention of the queries ``qh`` (B, H, Lq, dh) over the keys
    ``kh`` (B, H, Lk, dh) and values ``vh`` (B, H, Lk, dv) of H heads, query
    i over keys 0 to ``last[i]``: the forward both attention kinds share.

    Every (query, key) pair of every head is scored in one C-ordered
    broadcast product and a sum over its contiguous last axis, then scaled
    unless ``scale`` is None, masked past each query's last key and shifted
    by its row max; only the softmax sum over exactly that query's keys and
    its (1, t) @ (t, dv) value mix run per query, since a longer sum or
    product would add in another order.  Returns (the weights (B, H, Lq,
    Lk), zero past each query's last key; the outputs (Lq, B, H·dv); whether
    every unmasked score is finite)."""
    b, n_heads, n_q, _ = qh.shape
    n_k, dv = vh.shape[2:]
    scores = np.multiply(qh[:, :, :, None], kh[:, :, None], order="C").sum(axis=-1)
    if scale is not None:
        scores = scores * scale
    if last[0] == n_k - 1:        # one query, over every key: nothing to mask
        finite = np.isfinite(scores).all()
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        mixed = np.matmul(weights, vh).reshape((1, b, n_heads * dv))
        return weights, mixed, finite
    causal = np.arange(n_k) <= np.asarray(last)[:, None]               # (Lq, Lk)
    finite = np.isfinite(np.where(causal, scores, 0.0)).all()
    scores = np.where(causal, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    sums = np.empty((b, n_heads, n_q))
    for i, t in enumerate(last):
        sums[:, :, i] = np.add.reduce(e[:, :, i, :t + 1], axis=-1)
    weights = e / sums[..., None]
    mixed = np.empty((n_q, b, n_heads, 1, dv))
    for i, t in enumerate(last):
        np.matmul(weights[:, :, i:i + 1, :t + 1], vh[:, :, :t + 1], out=mixed[i])
    return weights, mixed.reshape((n_q, b, n_heads * dv)), finite


def _attention_bwd(out):
    # replays each query's chain from the last query to the first: the heads'
    # concat, the value mix, the softmax and the scale, each key and value
    # row adding the query's gradient to its own; then each query's per-key
    # products, from its last key to its first.  Sums start from -0.0, the
    # exact identity of addition, as the chain's first add was a copy; q's
    # heads then pass through its splits' zero-filled buffer, and q's row
    # and every key and value row through its slice's.
    q_all, k_all, v_all = out.parents
    scale, n_heads, queries, weights = out._ctx
    qh, kh, vh = _layer_heads(out.parents, n_heads)
    b, _, n_q, n_k = weights.shape
    g = _heads(out._grad, n_heads)                                   # (Lq, B, H, dv)
    g_scores = np.zeros(weights.shape)
    g_keys, g_values = np.full(kh[:, :, :n_k].shape, -0.0), np.full(vh[:, :, :n_k].shape, -0.0)
    for i in range(n_q - 1, -1, -1):
        t = queries[i] + 1
        w = np.ascontiguousarray(weights[:, :, i, :t])[:, :, None]    # (B, H, 1, t)
        g_i = g[i][:, :, None]                                       # (B, H, 1, dv)
        g_w = np.matmul(g_i, np.swapaxes(vh[:, :, :t], -1, -2))[:, :, 0]
        g_values[:, :, :t] += np.matmul(np.swapaxes(w, -1, -2), g_i)
        w = w[:, :, 0]
        g_s = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
        if scale is not None:
            g_s = g_s * scale
        g_scores[:, :, i, :t] = g_s
        g_keys[:, :, :t] += g_s[..., None] * qh[:, :, queries[i], None]
    g_q = np.full(g_scores.shape[:3] + (qh.shape[-1],), -0.0)
    for j in range(n_k - 1, -1, -1):
        first = bisect.bisect_left(queries, j)                       # the queries at j on
        g_q[:, :, first:] += g_scores[:, :, first:, j, None] * kh[:, :, j, None]
    if n_heads > 1:
        g_q = g_q + 0.0
    _grad_buffer(q_all)[:, queries] += g_q.transpose(0, 2, 1, 3).reshape((b, n_q, -1))
    for rows, g_rows in ((v_all, g_values), (k_all, g_keys)):
        _grad_buffer(rows)[:, :n_k] += g_rows.transpose(0, 2, 1, 3).reshape((b, n_k, -1))


def attention(q_all: Value, k_all: Value, v_all: Value, n_heads: int, scale,
              queries: Sequence[int]) -> Value:
    """Causal softmax attention over a whole sequence: the rows of ``q_all``
    (B, L, d) at ``queries``, increasing positions in [0, L), each split
    into ``n_heads`` heads of width dh and attending over the rows of
    ``k_all`` (B, L, d) and ``v_all`` (B, L, dv_total) up to its own
    position; returns each query's heads' outputs side by side, stacked
    query-major: (len(queries), B, dv_total).  One node with parents
    (q_all, k_all, v_all).

    One node for the chain that attended one query at a time: per query t,
    q's row slice and the per-query attention chain (per head a product and
    a row sum per key, the scores' concat, ``* scale`` unless ``scale`` is
    None, a softmax, the values' concat, a reshape, a matmul and a reshape,
    2(t + 1) + 6 ops, one more with the scale; with more than one head q's
    n_heads splits and the heads' concat); and per key and value row up to
    the last query, its slice and heads' splits, and each value head's
    reshape to (B, 1, dh).  Data and gradients are byte-identical to that
    chain's.  The node raises ``GraphOverflowError`` whenever a node of the
    chain would have: the softmax leaves non-finite scores' output finite,
    so every query's scores are checked as well as the output.
    """
    queries = tuple(int(t) for t in queries)
    b, length, d = q_all.shape if q_all.data.ndim == 3 else (0, 0, 0)
    if (not b or not queries or n_heads < 1 or d % n_heads or k_all.shape != q_all.shape
            or v_all.data.ndim != 3 or v_all.shape[:2] != (b, length)
            or v_all.shape[2] % n_heads or list(queries) != sorted(set(queries))
            or not 0 <= queries[0] <= queries[-1] < length):
        raise ShapeError(_ATTENTION.name, q_all.shape, k_all.shape, v_all.shape, n_heads,
                         queries)
    qh, kh, vh = _layer_heads((q_all, k_all, v_all), n_heads)
    n_k = queries[-1] + 1
    with _quiet():
        weights, mixed, finite = _softmax_mix(qh[:, :, list(queries)], kh[:, :, :n_k],
                                              vh[:, :, :n_k], scale, queries)
    out = Value(mixed, _ATTENTION, (q_all, k_all, v_all), (scale, n_heads, queries, weights))
    if not finite:
        _overflow(out)
    return out


def _cached_attention_bwd(out):
    # replays the chain in reverse creation order, for every head at once:
    # the heads' concat, the output reshape, the value matmul and the
    # weights' reshape, the value concat, the softmax, the scale, the sum and
    # the broadcast product, whose gradient for q is an unbroadcast sum over
    # the cache; then into the value rows, q and the key rows
    scale, n_heads, weights = out._ctx
    q, *rows = out.parents
    t = len(rows) // 2
    keys, values = rows[:t], rows[t:]
    key_array, value_array = (np.stack([_heads(r.data.reshape((r.shape[0], -1)), n_heads)
                                        for r in rs], axis=2) for rs in (keys, values))
    b = q.shape[0]
    w = weights[:, :, 0]                                             # (B, H, t)
    g = _heads(out._grad, n_heads)[:, :, None]                       # (B, H, 1, dv)
    g_weights = np.matmul(g, np.swapaxes(value_array, -1, -2))[:, :, 0]
    g_values = np.matmul(np.swapaxes(w[:, :, None], -1, -2), g)
    g_s = w * (g_weights - (g_weights * w).sum(axis=-1, keepdims=True))
    if scale is not None:
        g_s = g_s * scale
    g_product = np.broadcast_to(g_s[..., None], key_array.shape)
    g_q = _unbroadcast(g_product * key_array, (b, n_heads, 1, key_array.shape[-1]))
    g_keys = g_product * _heads(q.data, n_heads)[:, :, None]
    g_values, g_keys = (a.transpose(0, 2, 1, 3).reshape((b, t, -1)) for a in (g_values, g_keys))
    for j, v in enumerate(values):
        _accumulate(v, g_values[:, j])
    _accumulate_heads(q, [g_q], n_heads)
    for j, k in enumerate(keys):
        _accumulate(k, g_keys[:, j])


def cached_attention(q: Value, key_rows: Sequence[Value], value_rows: Sequence[Value],
                     key_array, value_array, n_heads: int, scale) -> Value:
    """Softmax attention of one query ``q`` (B, d), split into ``n_heads``
    heads of width dh, over a KV cache of t ``key_rows`` and t
    ``value_rows``; returns the heads' outputs side by side, (B,
    n_heads·dv).  The rows are ``split_row`` nodes, or any Values whose head
    i the arrays hold: ``key_array`` (B, n_heads, t, dh) and ``value_array``
    (B, n_heads, t, dv) are read in their place, ``key_array[:, i, j]`` head
    i of key row j's data and ``value_array[:, i, j]`` head i of value row
    j's, and only their shapes are checked, so the check is O(1) in t.  A
    cache's arrays are each step's own copies, so the node does not keep
    them: its backward stacks the rows' data again.  The forward is
    ``attention``'s, for one query that attends over every key.

    One node for the chain that scored each head's stacked cache in one
    broadcast product: per head the keys' concat, q's reshape, the product,
    a row sum, ``* scale`` unless ``scale`` is None, a softmax, the values'
    concat, a reshape, a matmul and a reshape, 9 ops (10 with the scale)
    whatever t is; and with more than one head, q's splits and the heads'
    concat.  Data and gradients are byte-identical to that chain's, whose
    gradients differ from ``attention``'s chain in the last bits; scores and
    output are checked as in ``attention``.
    """
    parents = (q, *key_rows, *value_rows)
    t = len(key_rows)
    b, d = q.shape if q.data.ndim == 2 else (0, 0)
    if (not b or not t or len(value_rows) != t or n_heads < 1 or d % n_heads
            or key_array.shape != (b, n_heads, t, d // n_heads)
            or value_array.ndim != 4 or value_array.shape[:3] != (b, n_heads, t)):
        raise ShapeError(_CACHED_ATTENTION.name, *(v.shape for v in parents), key_array.shape,
                         value_array.shape)
    with _quiet():
        weights, mixed, finite = _softmax_mix(_heads(q.data, n_heads)[:, :, None], key_array,
                                              value_array, scale, (t - 1,))
    out = Value(mixed[0], _CACHED_ATTENTION, parents, (scale, n_heads, weights))
    if not finite:
        _overflow(out)
    return out


_elu1, _elu1_deriv = NONLINEARITIES["elu_plus_one"]


def _embed_rows_bwd(out):
    # each position's add passes its gradient on as is, and each gather,
    # from the last position to the first, adds its rows into the table's
    # zero-filled buffer
    ids, g = out._ctx[0], out._grad
    buf = _grad_buffer(out.parents[0])
    for t in range(ids.shape[1] - 1, -1, -1):
        np.add.at(buf, ids[:, t], g[t])


def embed_rows(table: Value, ids, positions=None) -> Value:
    """The rows of ``table`` (V, d) at the token ids ``ids`` (B, n), each
    position's plus its row of ``positions`` (n, d) if given, stacked
    position-major: (n, B, d), row t for the tokens ``ids[:, t]``; one node
    with parent ``table``.

    One node for the chain that embedded one position at a time: per
    position the table's gather and, with ``positions``, the add of its
    row, n or 2n ops on a chain 1 or 2 long.  Data and gradients are
    byte-identical to that chain's: the table takes each position's rows in
    turn, from the last position to the first, as the gathers added them.
    A gather of finite rows is finite, so the output's check raises where
    the adds would have.
    """
    ids = np.asarray(ids)
    if (ids.ndim != 2 or not np.issubdtype(ids.dtype, np.integer) or table.data.ndim != 2
            or positions is not None and np.shape(positions) != (ids.shape[1], table.shape[1])):
        raise ShapeError(_EMBED_ROWS.name, table.shape, ids.shape, np.shape(positions))
    try:
        data = table.data[ids.T]
    except IndexError as err:
        raise ShapeError(_EMBED_ROWS.name, table.shape, ids.shape) from err
    if positions is not None:
        data = data + np.asarray(positions)[:, None]
    return Value(data, _EMBED_ROWS, (table,), (ids, positions is not None))


# -- the recurrent state scans -------------------------------------------------
# A scan runs one layer's state recurrence over a chunk of n tokens, token by
# token inside one node, and reads out only at its ``queries``, since the
# chain's read-outs elsewhere reached no logit.  Its output stacks the
# read-outs, (len(queries), B, d), then the state after the last token, as
# rows of that width.  A next chunk's scan takes this one as its last
# parent and adds its gradient into those rows through ``_add_rows``, as
# ``pick`` does, so that rows nothing reads leave every gradient as the
# chain's nodes left it.  Each token's k, v and q rows sum what the token's
# chain adds into them before they add it into their stack, as the token's
# own node did.  ``rows`` replays the chain's depths token by token, so each
# read-out row has its own token's depth.

# the rows of each stack that a reader reached in the running ``backward``,
# by the stack's id
_rows_read: dict[int, np.ndarray] = {}


def _add_rows(stack: Value, index, g) -> None:
    """Add ``g`` into rows ``index`` of ``stack``'s gradient, filled with
    -0.0 on first use, and note that a reader reached those rows."""
    if stack._grad is None:
        stack._grad = np.full_like(stack.data, -0.0)
    stack._grad[index] += g
    seen = _rows_read.get(stack.id)
    if seen is None:
        seen = _rows_read[stack.id] = np.zeros(stack.shape[0], dtype=bool)
    seen[index] = True


def _rows_reached(stack: Value, index) -> bool:
    """Whether a reader reached rows ``index`` of ``stack`` in the running
    ``backward``: one that noted them, one that read the whole node (and
    noted nothing), or one that left their gradient other than the -0.0
    ``_add_rows`` starts from."""
    seen = _rows_read.get(stack.id)
    g = stack._grad[index]
    return seen is None or seen[index].any() or not (np.signbit(g).all() and not g.any())


def _state_rows(prev: Value, op: "Op", b: int, d: int, count: int) -> np.ndarray:
    """The last ``count`` rows of ``prev``, a scan of kind ``op`` over a batch
    of ``b`` rows of width ``d``: the state it hands on."""
    if prev.op is not op or prev.shape[1:] != (b, d):
        raise ShapeError(op.name, prev.shape, (b, d))
    return prev.data[prev.shape[0] - count:]


def _check_queries(queries, n: int, op: "Op", *shapes) -> tuple:
    """``queries`` as a tuple, if they are increasing positions in [0, n)."""
    queries = tuple(int(t) for t in queries)
    if (not queries or list(queries) != sorted(set(queries))
            or not 0 <= queries[0] <= queries[-1] < n):
        raise ShapeError(op.name, *shapes, queries)
    return queries


def _rwkv_scan_bwd(out):
    # replays each token's chain from the last token to the first: the
    # update after it (b', a', then exp(k)), its output and the decay; the
    # state before a token, and its k and v rows, take its update's
    # gradient first, then its output's; each row then adds its sum into k
    # or v, as the token's own node passed its gradient on.  The chain built
    # every token's update, but those after the last read-out only a
    # reader of the state reached, so their backward runs only if a reader
    # reached the state rows: from -0.0, it would turn the sign of some
    # zeros
    w, u, k, v, *prev = out.parents
    queries, _, z, nl, ek, a_all, b_all, (bonus, num, den) = out._ctx[:8]
    n = k.shape[0]
    s0 = 0 if prev else 1
    vd = v.data
    qs = np.asarray(queries)
    n_q = len(qs)
    live = qs >= s0
    tl = qs[live]
    g = out._grad
    go = g[:n_q][live]
    g_num = go / den
    g_den = -go * num / (den * den)
    g_s = (g_den + g_num * vd[tl]) * bonus
    out_k, out_v, out_a, out_b = (np.full(k.shape, -0.0) for _ in range(4))
    out_a[tl], out_b[tl], out_k[tl], out_v[tl] = g_num, g_den, g_s, g_num * bonus
    ga, gb = np.full(a_all.shape, -0.0), np.full(a_all.shape, -0.0)
    last = n if _rows_reached(out, slice(n_q, None)) else queries[-1]    # the updates reached
    if last == n:
        ga[n], gb[n] = g[n_q:]
    for t in range(n - 1, s0 - 1, -1):
        ga[t], gb[t] = ga[t + 1] * z + out_a[t], gb[t + 1] * z + out_b[t]
    upd_k, upd_v = np.full(k.shape, -0.0), np.full(k.shape, -0.0)
    g_ek = gb[1:last + 1] + ga[1:last + 1] * vd[:last]
    upd_v[:last] = ga[1:last + 1] * ek[:last]
    upd_k[:last] = g_ek * ek[:last]
    if not prev and queries[0] == 0:
        out_v[0] = g[0]                 # token 0, with no state, reads out its value row
    _accumulate(k, upd_k + out_k)
    _accumulate(v, upd_v + out_v)
    for g_row in g_s[::-1]:
        _accumulate(u, _unbroadcast(g_row, u.shape))
    deriv = _elu1_deriv(w.data, nl)
    for t in range(last - 1, s0 - 1, -1):
        g_z = _unbroadcast(gb[t + 1] * b_all[t], z.shape) + _unbroadcast(ga[t + 1] * a_all[t],
                                                                          z.shape)
        _accumulate(w, g_z * z * -1.0 * deriv)
    if prev:
        _add_rows(prev[0], slice(-2, None), np.stack([ga[0], gb[0]]))


def rwkv_scan(w: Value, u: Value, k: Value, v: Value, prev: Value | None, queries) -> Value:
    """RWKV's time-mix over a chunk of n tokens, their keys ``k`` and values
    ``v`` (n, B, d), read out at ``queries`` (increasing positions in [0,
    n)); one node with parents (w, u, k, v) and ``prev``, the previous
    chunk's scan, if any.

    The state before token t is the decayed sums (a, b) of the tokens
    before it, with decay z = exp(-elu_plus_one(w)), and token t reads out
    (a + e^(u + k_t) v_t) / (b + e^(u + k_t)), or its value row when no
    token came before.  The output stacks the read-outs, then (a, b) after
    the last token, the state the next chunk starts from.

    One node for the chain that ran one token at a time: per token from the
    second on, the decay (3 ops), the read-out (6) and the update (exp(k),
    z * a + e^k * v and z * b + e^k, 6); for the first, its update e^k *
    v, e^k (2).  The last token's update reached no logit of the chain
    unless a next chunk read the state, so the scan that resumes this one
    counts its ops, flops and depth, first among its own.  Data and
    gradients are byte-identical to that chain's.  The node raises
    ``GraphOverflowError`` whenever a node of the chain would have: every
    e^k, updated state and read-out is checked, and u + k and the
    denominator as well, since their infinities leave the read-out finite.
    """
    n, b, d = k.shape if k.data.ndim == 3 else (0, 0, 0)
    if not n or v.shape != k.shape or w.shape != (d,) or u.shape != (d,):
        raise ShapeError(_RWKV_SCAN.name, w.shape, u.shape, k.shape, v.shape)
    queries = _check_queries(queries, n, _RWKV_SCAN, k.shape)
    kd, vd = k.data, v.data
    nl = _elu1(w.data)
    # the state before each token, then after the last; s0 is the first
    # token with a state before it
    a_all, b_all = np.empty((n + 1, b, d)), np.empty((n + 1, b, d))
    s0 = 1 if prev is None else 0
    with _quiet():
        z = np.exp(nl * -1.0)
        ek = np.exp(kd)
        if prev is None:
            a_all[1], b_all[1] = ek[0] * vd[0], ek[0]
        else:
            a_all[0], b_all[0] = _state_rows(prev, _RWKV_SCAN, b, d, 2)
        for t in range(s0, n):
            a_all[t + 1], b_all[t + 1] = z * a_all[t] + ek[t] * vd[t], z * b_all[t] + ek[t]
        qs = np.asarray(queries)
        tl = qs[qs >= s0]
        s = u.data + kd[tl]
        bonus = np.exp(s)
        num = a_all[tl] + bonus * vd[tl]
        den = b_all[tl] + bonus
        read = np.empty((len(qs), b, d))
        read[qs >= s0] = num / den
        read[qs < s0] = vd[qs[qs < s0]]
    finite = (np.isfinite(ek).all() and np.isfinite(a_all[s0:]).all()
              and np.isfinite(b_all[s0:]).all() and np.isfinite(s).all()
              and np.isfinite(den).all())
    # the updates counted here, True for one with a state before it: each
    # token's but the last, and the previous chunk's last
    updates = [t >= s0 for t in range(n - 1)] + ([] if prev is None else [not prev._ctx[1]])
    ops = 9 * sum(updates) + 2 * updates.count(False) + 6 * len(tl)
    flops = (9 * d + 9 * b * d) * sum(updates) + 5 * b * d * updates.count(False) \
        + 9 * b * d * len(tl)
    first = prev is None and n == 1      # the state it hands on is the first update
    out = Value(np.concatenate([read, a_all[-1:], b_all[-1:]]), _RWKV_SCAN,
                (w, u, k, v) + (() if prev is None else (prev,)),
                (queries, first, z, nl, ek, a_all, b_all, (bonus, num, den), ops, flops))
    if not finite:
        _overflow(out)
    return out


def _rwkv_scan_rows(v: Value, depths) -> np.ndarray:
    # replays the chain's depths token by token: the decay is 3 ops past w;
    # the read-out 5 past u and k, 3 past v and 2 past a and b; the update
    # starts from a, e^k (one past k) and v for a, and from b and e^k for
    # b, and ends 2 past those and the decay, or 1 for the first update.
    # The state rows hold where the last token's update starts, a's deepest
    # of a, e^k and v and b's of b and k; the scan that resumes this one
    # ends it, as it counts its ops
    dw, du, dk, dv, *dprev = depths
    queries = v._ctx[0]
    n = v.parents[2].shape[0]
    dk, dv = np.broadcast_to(dk, n), np.broadcast_to(dv, n)
    dz = dw + 3

    def start(a, b, t):
        if a is None:
            return max(dk[t] + 1, dv[t]), dk[t]
        return max(a, dk[t] + 1, dv[t]), max(b, dk[t])

    def end(a, b, first):
        return (a + 1, b + 1) if first else (max(dz, a) + 2, max(dz, b) + 2)

    a = b = None
    if dprev:
        prev = v.parents[4]
        rows = np.broadcast_to(dprev[0], prev.shape[0])
        a, b = end(rows[-2], rows[-1], prev._ctx[1])
    read = []
    for t in range(n):
        if t in queries:
            read.append(dv[t] if a is None else max(du + 5, dk[t] + 5, dv[t] + 3, a + 2, b + 2))
        if t < n - 1:
            a, b = end(*start(a, b, t), a is None)
    return np.array(read + list(start(a, b, n - 1)), dtype=np.float64)


def _linear_scan_bwd(out):
    # replays each token's chain from the last token to the first, every
    # read-out at once: the read-out, b + k, the outer-product update, k's
    # split and the feature maps of q and k; the state after a token takes
    # the next update's gradient (or the next chunk's, through the state
    # rows) first, then its read-out's; with heads, each split adds through
    # a zero-filled buffer
    q, k, v, *prev = out.parents
    queries, n_heads, deriv, pq, pk, a_all, b_all, num, den = out._ctx[:9]
    n, b, d = k.shape
    qs, n_q = np.asarray(queries), len(queries)
    g = out._grad
    qh, bh, gh = _heads(pq, n_heads), _heads(b_all[qs], n_heads), _heads(g[:n_q], n_heads)
    g_num = gh / den
    g_p = np.broadcast_to((-gh * num / (den * den)).sum(axis=-1, keepdims=True), qh.shape)
    g_m = g_num[..., None, :]
    g_rq = np.matmul(g_m, np.swapaxes(a_all[qs], -1, -2))[..., 0, :]
    read_a, read_b = np.full(a_all.shape, -0.0), np.full(k.shape, -0.0)
    read_b[qs] = (g_p * qh).reshape((n_q, b, d))
    read_a[qs] = np.matmul(qh[..., None], g_m)
    g_q = (g_p * bh + g_rq).reshape(q.shape)
    # the state's gradients, summed from the last token back
    ga = np.cumsum(np.concatenate([_unpack(g[n_q:-1], a_all.shape[1:])[None], read_a[::-1]]),
                   axis=0)[:0:-1]
    gb = np.cumsum(np.concatenate([g[-1:], read_b[::-1]]), axis=0)[:0:-1]
    kh, vh = _heads(pk, n_heads), _heads(v.data, n_heads)
    g_v = np.matmul(np.swapaxes(kh[..., None], -1, -2), ga).reshape(k.shape)
    g_k = gb + np.matmul(ga, np.swapaxes(vh[..., None, :], -1, -2)).reshape(k.shape)
    if n_heads > 1:
        g_q, g_k, g_v = g_q + 0.0, g_k + 0.0, g_v + 0.0
    if not _rows_reached(out, slice(n_q, None)):
        # the tokens after the last read-out fed only the state, which no
        # reader reached, nor any of their chain's nodes
        g_k[queries[-1] + 1:] = g_v[queries[-1] + 1:] = -0.0
    _accumulate(q, g_q * deriv(q.data, pq))
    _accumulate(k, g_k * deriv(k.data, pk))
    _accumulate(v, g_v)
    if prev:
        _add_rows(prev[0], slice(-(d // n_heads + 1), None),
                  np.concatenate([_pack(ga[0], d), gb[:1]]))


def _pack(a: np.ndarray, d: int) -> np.ndarray:
    """A state ``a`` (B, ...) as rows of width ``d``: (a.size / (B·d), B, d)."""
    return a.reshape((a.shape[0], -1, d)).transpose(1, 0, 2)


def _unpack(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """``_pack``'s rows as a state of ``shape`` (B, ...) again."""
    return rows.transpose(1, 0, 2).reshape(shape)


def linear_scan(q: Value, k: Value, v: Value, prev: Value | None, queries, n_heads: int,
                feature_map: str) -> Value:
    """Linear attention over a chunk of n tokens for all ``n_heads`` heads:
    the keys ``k`` and values ``v`` (n, B, d) of every token and the queries
    ``q`` (len(queries), B, d) of the tokens ``queries`` (increasing
    positions in [0, n)), all before the feature map ``feature_map``; one
    node with parents (q, k, v) and ``prev``, the previous chunk's scan, if
    any.

    Per head of width dh = d / n_heads, the state after token t is a, the
    sum of the outer products phi(k_i) (x) v_i, and b, the sum of phi(k_i),
    over the tokens so far, and token t reads out (phi(q_t) a) / (phi(q_t)
    . b).  The output stacks the read-outs, then the state after the last
    token as rows: a's dh rows (a's (B, n_heads, dh, dh) array in rows of
    width d), then b's.

    One node for the chain that ran one token at a time: per token phi(k)
    and, with heads, its n_heads splits; a's update (4 ops per head, 3 for
    the first token, and v's splits) and b + phi(k) (an add per head, none
    for the first token); per query phi(q) and the read-out (6 ops per
    head, and with heads q's splits and the heads' concat).  Data and
    gradients are byte-identical to that chain's.  The node raises
    ``GraphOverflowError`` whenever a node of the chain would have: the
    feature maps, every updated state and every read-out are checked, and
    the denominators as well, since their infinities leave the read-out
    finite.
    """
    n, b, d = k.shape if k.data.ndim == 3 else (0, 0, 0)
    if (not n or n_heads < 1 or d % n_heads or v.shape != k.shape or q.data.ndim != 3
            or q.shape[1:] != (b, d)):
        raise ShapeError(_LINEAR_SCAN.name, q.shape, k.shape, v.shape, n_heads)
    queries = _check_queries(queries, n, _LINEAR_SCAN, q.shape, k.shape)
    if q.shape[0] != len(queries):
        raise ShapeError(_LINEAR_SCAN.name, q.shape, k.shape, queries)
    if feature_map not in NONLINEARITIES:
        raise TensorError(f"unknown nonlinearity {feature_map!r}")
    fwd, deriv = NONLINEARITIES[feature_map]
    dh = d // n_heads
    with _quiet():
        pq, pk = fwd(q.data), fwd(k.data)
        kh, vh = _heads(pk, n_heads), _heads(v.data, n_heads)
        outer = np.matmul(kh[..., None], vh[..., None, :])             # (n, B, H, dh, dh)
        if prev is not None:
            if prev.op is _LINEAR_SCAN and prev._ctx[1] != n_heads:
                raise ShapeError(_LINEAR_SCAN.name, prev.shape, k.shape, n_heads)
            rows = _state_rows(prev, _LINEAR_SCAN, b, d, dh + 1)
            outer = np.concatenate([_unpack(rows[:-1], outer.shape[1:])[None], outer])
            pk_sum = np.concatenate([rows[-1:], pk])
        else:
            pk_sum = pk
        a_all = np.cumsum(outer, axis=0)[-n:]
        b_all = np.cumsum(pk_sum, axis=0)[-n:]
        qs = np.asarray(queries)
        qh = _heads(pq, n_heads)
        num = np.matmul(qh[..., None, :], a_all[qs])[..., 0, :]
        den = (qh * _heads(b_all[qs], n_heads)).sum(axis=-1, keepdims=True)
        read = (num / den).reshape(q.shape)
    finite = all(np.isfinite(x).all() for x in (pq, pk, a_all, b_all, den))
    first = prev is None                     # token 0 updates an empty state
    splits = _splits(n_heads)
    ops = (n * (1 + splits + 5 * n_heads + splits) - first * 2 * n_heads
           + len(qs) * (1 + 6 * n_heads + splits + (splits and 1)))
    flops = (n * (4 * b * d + 3 * b * d * dh + b * d) - first * (b * d * dh + b * d)
             + len(qs) * (4 * b * d + (2 * dh + 1) * b * d + 2 * b * d))
    data = np.concatenate([read, _pack(a_all[-1], d), b_all[-1:]])
    out = Value(data, _LINEAR_SCAN, (q, k, v) + (() if prev is None else (prev,)),
                (queries, n_heads, deriv, pq, pk, a_all, b_all, num, den, ops, flops))
    if not finite:
        _overflow(out)
    return out


def _linear_scan_rows(v: Value, depths) -> np.ndarray:
    # replays the chain's depths token by token: phi is 1 op past its
    # projection and k's split 1 more with heads; a's update 1 past a and 3
    # past k (one more from v with heads), b + k 1 past both; the read-out
    # 4 past q (2 more with heads) and 3 past a and b (1 more with heads)
    dq, dk, dv, *dprev = depths
    queries, n_heads = v._ctx[:2]
    n, _, d = v.parents[1].shape
    m = n_heads > 1
    dk, dv = np.broadcast_to(dk, n), np.broadcast_to(dv, n)
    dq = np.broadcast_to(dq, len(queries))
    a = b = None
    if dprev:
        rows = np.broadcast_to(dprev[0], v.parents[3].shape[0])
        a, b = rows[-2], rows[-1]
    read = []
    for t in range(n):
        kk = dk[t] + 1 + m
        if a is None:
            a, b = max(kk + 2, dv[t] + 2 + m), kk
        else:
            a, b = max(a + 1, kk + 3, dv[t] + 3 + m), max(b, kk) + 1
        if t in queries:
            read.append(max(dq[len(read)] + 5 + 2 * m, a + 3 + m, b + 3 + m))
    return np.array(read + [a] * (d // n_heads) + [b], dtype=np.float64)


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


def _copies(stacked) -> Callable[["Value"], int]:
    """The copies of its chain a node of a kind that may be stacked (see
    ``_param_grad``) holds: one per query, the rows of its output's leading
    axis, if ``stacked(node)``; else one."""
    return lambda v: v.shape[0] if stacked(v) else 1


def _affine_chains(v: Value) -> tuple:
    # the first pair's operands k + 1 ops from the output, pair j's (j >= 2)
    # k - j + 3 and the bias's 1; one op less each without the bias
    k, b = divmod(len(v.parents), 2)
    return (k + b, k + b, *(k - j + 2 + b for j in range(2, k + 1) for _ in range(2)), *(1,) * b)


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
# layer_norm's 13 ops per copy, on chains 13, 2 and 1 long from x, gain and
# bias: 7 take a flop per scalar of x, and the 6 on the row statistics 12
# per row
_ln_copies = _copies(lambda v: v._ctx[4])
_LAYER_NORM = Op("layer_norm", _layer_norm_bwd,
                 lambda v: 7 * v.data.size + 12 * (v.data.size // v.shape[-1]),
                 ops=lambda v: 13 * _ln_copies(v), chains=_always((13, 2, 1)), rowwise=True)
# the FFN sublayer's 20 ops per copy: the first add, the layer norm's, then
# per scalar of the pre-activation (f per row) 2·d + 1 for the first map and
# 4 for the nonlinearity, and per output scalar 2·f + 1 for the second map
# and 1 for each residual add; on chains 20 long from h and a, 8 from the
# norm's gain, 7 from its bias, 6 from W1, 5 from b1, 3 from W2 and 2 from b2
_ffn_copies = _copies(lambda v: v._ctx[5])
_FFN_SUBLAYER = Op("ffn_sublayer", _ffn_sublayer_bwd,
                   lambda v: _LAYER_NORM.flops(v) + (2 * v.shape[-1] + 5) * v._ctx[3].size
                   + (2 * v._ctx[3].shape[-1] + 3) * v.data.size,
                   ops=lambda v: 20 * _ffn_copies(v),
                   chains=_always((20, 20, 8, 7, 6, 5, 3, 2)), rowwise=True)
# affine with k pairs: k products and k adds per copy, one add less without
# the bias; 2·m flops per output scalar for a product over width m, 1 for
# each add
_affine_copies = _copies(lambda v: v._ctx)
_AFFINE = Op("affine", _affine_bwd,
             lambda v: (sum(2 * x.shape[-1] + 1 for x in v.parents[:-1:2]) - 1
                        + len(v.parents) % 2) * v.data.size,
             ops=lambda v: (len(v.parents) - 1) * _affine_copies(v), chains=_affine_chains,
             rowwise=True)
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
    """A ``split_row`` node's chain, step by step: the nodes of its splits
    (0 or n_heads) and of its reshapes (0 or n_heads); its chain is one op
    long per step that has any."""
    n_heads, rows = v._ctx
    return (_splits(n_heads), n_heads if rows else 0)


def _scaled(v: Value) -> int:
    """1 if an attention node's chain holds the ``* scale`` op, else 0."""
    return v._ctx[0] is not None


def _attention_chains(v: Value) -> tuple:
    # per query, 9 ops from q_all and from k_all (8 without the scale): q's
    # row slice or a key row's slice, per head the product, the sum, the
    # concat, the scale, softmax, reshape, matmul and reshape; 5 from v_all:
    # a value row's slice, its reshape, concat, the matmul and the reshape;
    # with heads, every chain also passes a split and the heads' concat
    s, m = _scaled(v), _splits(v._ctx[1]) and 1
    return (8 + s + 2 * m,) * 2 + (5 + 2 * m,)


def _attention_ops(v: Value) -> int:
    # per query t over t + 1 keys: q's row slice and, per head, 2(t + 1) + 6
    # ops (one more with the scale), with heads q's splits and the heads'
    # concat; per key row up to the last query its slice and splits, per
    # value row its slice, splits and one reshape per head
    n_heads, queries = v._ctx[1:3]
    per_query = 1 + n_heads * (8 + _scaled(v)) + _splits(n_heads) + (_splits(n_heads) and 1)
    rows = 2 * (1 + _splits(n_heads)) + n_heads
    return len(queries) * per_query + 2 * n_heads * sum(queries) + (queries[-1] + 1) * rows


def _attention_flops(v: Value) -> int:
    # per query, key and head: a product and a sum over q's B·dh scalars, the
    # scale and the softmax (4) per score, and the value matmul's 2 per output
    # scalar
    b, _, d = v.parents[0].shape
    queries = v._ctx[2]
    per_key = 2 * b * d + (4 + _scaled(v)) * b * v._ctx[1] + 2 * v.data.size // len(queries)
    return per_key * sum(t + 1 for t in queries)


def _cached_attention_chains(v: Value) -> tuple:
    # per head, 8 ops from q and from each key (7 without the scale): the
    # product, the sum, the concat or reshape, the scale, softmax, reshape,
    # matmul and reshape; 3 from each value row: its concat, the matmul and
    # the reshape; with heads, q's split and the heads' concat, which every
    # row's chain also passes through
    t = len(v.parents) // 2
    s, m = _scaled(v), _splits(v._ctx[1]) and 1
    return (7 + s + 2 * m,) + (7 + s + m,) * t + (3 + m,) * t


def _cached_attention_flops(v: Value) -> int:
    # as _attention_flops for one query over the cache's t keys
    q = v.parents[0]
    return len(v.parents) // 2 * (2 * q.data.size + (4 + _scaled(v)) * q.shape[0] * v._ctx[1]
                                  + 2 * v.data.size)


_ATTENTION = Op("attention", _attention_bwd, _attention_flops, ops=_attention_ops,
                chains=_attention_chains)
# the cached kind over t keys: 9 ops per head, one more with the scale, and
# q's splits and the heads' concat with more than one head
_CACHED_ATTENTION = Op("cached_attention", _cached_attention_bwd, _cached_attention_flops,
                       ops=lambda v: v._ctx[1] * (9 + _scaled(v)) + _splits(v._ctx[1])
                       + (_splits(v._ctx[1]) and 1),
                       chains=_cached_attention_chains)
# a row's splits and its reshapes: no flops
_SPLIT_ROW = Op("split_row", _split_row_bwd, _per_out(0), ops=lambda v: sum(_row_steps(v)),
                chains=lambda v: (sum(map(bool, _row_steps(v))),))
# a sequence's L row slices, on a chain 1 long; L rows' reshapes and their
# concat, on a chain 2 long; a pick, no op: none moves a flop
_POSITION_ROWS = Op("position_rows", _position_rows_bwd, _per_out(0),
                    ops=lambda v: v.shape[0], chains=_always((1,)))
_STACK_ROWS = Op("stack_rows", _stack_rows_bwd, _per_out(0), ops=lambda v: v.shape[1] + 1,
                 chains=_always((2,)))
_PICK = Op("pick", _pick_bwd, _per_out(0), ops=_always(0),
           rows=lambda v, depths: depths[0] if np.ndim(depths[0]) == 0 else depths[0][v._ctx])
# an embedding row's gather, and its positional add (one flop per scalar)
_EMBED_ROWS = Op("embed_rows", _embed_rows_bwd, lambda v: v._ctx[1] * v.data.size,
                 ops=lambda v: v.shape[0] * (1 + v._ctx[1]), chains=lambda v: (1 + v._ctx[1],))
# a scan's ops and flops are its chain's, counted as it runs; per token, the
# decay is 9 flops per scalar of w, exp(k) 4 per scalar, the decayed sums 3
# and 2, the first update's product 1, the read-out 9; phi 4, a's update 3
# per scalar of a (2 for the first), b's 1, the read-out 2·dh + 1 per
# output scalar and 2 per scalar of q
_RWKV_SCAN = Op("rwkv_scan", _rwkv_scan_bwd, lambda v: v._ctx[9], ops=lambda v: v._ctx[8],
                rows=_rwkv_scan_rows)
_LINEAR_SCAN = Op("linear_scan", _linear_scan_bwd, lambda v: v._ctx[10],
                  ops=lambda v: v._ctx[9], rows=_linear_scan_rows)
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
    _rows_read.clear()
    try:
        for node in reversed(order):
            bwd = node.op.backward
            if bwd is not None:
                bwd(node)
    finally:
        _rows_read.clear()
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
