"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation creates one graph node (a ``Value``).  Node ids are globally
monotonic, so parent ids are always strictly smaller than the child id and the
graph is acyclic by construction.  The profiler relies on this: one node is one
counted operation, regardless of the tensor sizes involved.

Elementwise ops follow numpy broadcasting; gradients are summed back over
broadcast axes.  All data is float64 -- equivalence tests between recurrent and
parallel model forms need the head-room.

A graph holds no reference cycles either.  Each op kind has one module-level
backward function, such as ``_mul_bwd(out)``, that reads its operands from
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
``_DEFER_SIZE`` elements joins a pending list instead.  The list is checked in
one numpy call when it holds ``_BATCH`` nodes, when any scope is entered or
left (also by an exception), and before a larger node is checked; only if
that call finds a non-finite value are its nodes walked in creation order.
So a fault raises the same error for the same node as a check per node
would, before the graph leaves its scope or a nested scope such as
``backward`` reads it.  Like the collector switch, the list is process-wide:
recurlab builds no graphs from threads.
"""

from __future__ import annotations

import gc
import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Value",
    "GradReport",
    "TensorError",
    "ShapeError",
    "GraphOverflowError",
    "NONLINEARITIES",
    "constant",
    "parameter",
    "matmul",
    "add",
    "sub",
    "mul",
    "divide",
    "exp",
    "log",
    "nonlinearity",
    "softmax",
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


@contextmanager
def graph_scope():
    """Pause the cyclic collector and numpy's overflow and invalid-value
    warnings while a graph is built or walked, and check small nodes' finite
    values in batches; use as ``with graph_scope():`` or as the decorator
    ``@graph_scope()``.

    Every node's finite check reports overflow as ``GraphOverflowError``, so
    the warnings would only repeat it.  Inside a scope small nodes are checked
    in batches (see the module docstring), with the same error and node as a
    check per node, before this scope is left or a nested one such as
    ``backward`` starts; an error raised in the scope gives way to the
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


class Value:
    """One node of the computation graph.

    ``parents`` is the ordered operand list; ``input`` and ``parameter`` nodes
    have no parents.  A node holds no gradient array until ``backward`` first
    reaches it; until then ``grad`` reads as zeros of ``data``'s shape, so
    forward-only graphs allocate no gradient memory.  ``_backward`` is the op
    kind's backward function and ``_ctx`` the op argument it reads.

    A node whose data holds inf or nan raises ``GraphOverflowError`` naming
    its op kind and id: when it is built outside a ``graph_scope``, and by the
    next batched check inside one (see the module docstring).
    """

    __slots__ = ("data", "_grad", "op_kind", "parents", "id", "_backward", "_ctx")

    def __init__(self, data, op_kind: str = "input", parents: Sequence["Value"] = (),
                 _backward: Callable | None = None, _ctx=None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self._grad = None
        self.op_kind = op_kind
        self.parents = tuple(parents)
        self.id = next(_ids)
        self._backward = _backward
        self._ctx = _ctx
        if _depth and data.size <= _DEFER_SIZE:
            _pending.append(self)
            if len(_pending) >= _BATCH:
                _check_pending()
            return
        if _pending:
            _check_pending()
        if not np.isfinite(data).all():
            raise GraphOverflowError(op_kind, self.id)

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
    return Value(data, op_kind="input")


def parameter(data) -> Value:
    return Value(data, op_kind="parameter")


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


def _elementwise(op_kind: str, a: Value, b: Value, fwd, bwd) -> Value:
    try:
        data = fwd(a.data, b.data)
    except ValueError as err:
        raise ShapeError(op_kind, a.shape, b.shape) from err
    return Value(data, op_kind, (a, b), bwd)


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
    return _elementwise("add", a, b, np.add, _add_bwd)


def sub(a: Value, b: Value) -> Value:
    return _elementwise("sub", a, b, np.subtract, _sub_bwd)


def mul(a: Value, b: Value) -> Value:
    return _elementwise("mul", a, b, np.multiply, _mul_bwd)


def _divide(x, y):
    # x/0 and 0/0 yield inf/nan; the node's finite check then raises
    # GraphOverflowError with this node's id
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, y)


def divide(a: Value, b: Value) -> Value:
    return _elementwise("divide", a, b, _divide, _divide_bwd)


def _matmul_bwd(out):
    a, b = out.parents
    ad, bd = a.data, b.data
    a1, b1 = ad.ndim == 1, bd.ndim == 1
    # promote 1D operands to matrices so one transpose rule covers all cases
    ad2 = ad[None, :] if a1 else ad
    bd2 = bd[:, None] if b1 else bd
    g = out._grad
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


def matmul(a: Value, b: Value) -> Value:
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise ShapeError("matmul", a.shape, b.shape) from err
    return Value(data, "matmul", (a, b), _matmul_bwd)


def _exp_bwd(out):
    _accumulate(out.parents[0], out._grad * out.data)


def exp(a: Value) -> Value:
    # overflow yields inf; the node's finite check then raises
    # GraphOverflowError with this node's id
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return Value(data, "exp", (a,), _exp_bwd)


def _log_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad / a.data)


def log(a: Value) -> Value:
    # log(0) and log(x < 0) yield -inf/nan; the node's finite check then
    # raises GraphOverflowError with this node's id
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)
    return Value(data, "log", (a,), _log_bwd)


def _nonlinearity_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad * out._ctx(a.data, out.data))


def nonlinearity(a: Value, kind: str) -> Value:
    if kind not in NONLINEARITIES:
        raise TensorError(f"unknown nonlinearity {kind!r}")
    fwd, deriv = NONLINEARITIES[kind]
    return Value(fwd(a.data), f"nonlinearity({kind})", (a,), _nonlinearity_bwd, deriv)


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
    return Value(data, "softmax", (a,), _softmax_bwd)


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
    values = tuple(_lift(v) for v in values)
    try:
        data = np.concatenate([v.data for v in values], axis=axis)
    except ValueError as err:
        raise ShapeError("concat", *[v.shape for v in values]) from err
    return Value(data, "concat", values, _concat_bwd, axis)


def _is_basic_key(key) -> bool:
    """True for an index of slices, ints, ``...`` and ``None`` only: it selects
    a view, in which no cell of the source appears twice."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def _slice_bwd(out):
    _grad_buffer(out.parents[0])[out._ctx] += out._grad


def _gather_bwd(out):
    # fancy indices may repeat a cell; add.at sums every occurrence
    np.add.at(_grad_buffer(out.parents[0]), out._ctx, out._grad)


def slice_(a: Value, key) -> Value:
    bwd = _slice_bwd if _is_basic_key(key) else _gather_bwd
    return Value(a.data[key], "slice", (a,), bwd, key)


def take_rows(a: Value, indices) -> Value:
    """Gather rows along axis 0 (embedding-table lookup)."""
    indices = np.asarray(indices)
    return Value(a.data[indices], "slice", (a,), _gather_bwd, indices)


def _reshape_bwd(out):
    a = out.parents[0]
    _accumulate(a, out._grad.reshape(a.shape))


def reshape(a: Value, shape) -> Value:
    try:
        data = a.data.reshape(shape)
    except ValueError as err:
        raise ShapeError("reshape", a.shape, shape) from err
    return Value(data, "reshape", (a,), _reshape_bwd)


def _sum_bwd(out):
    # _ctx is the summed axis when it was dropped, else None
    a = out.parents[0]
    g = out._grad
    if out._ctx is not None:
        g = np.expand_dims(g, out._ctx)
    _accumulate(a, np.broadcast_to(g, a.shape))


def vsum(a: Value, axis=None, keepdims: bool = False) -> Value:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return Value(data, "sum", (a,), _sum_bwd, None if keepdims else axis)


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
        if node._backward is not None:
            node._backward(node)
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
        vals = [Value(a, op_kind="input") for a in arrs]
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
