"""Minimal reverse-mode autodiff over dense float64 arrays.

Every operation creates one graph node (a ``Value``).  Node ids are globally
monotonic, so parent ids are always strictly smaller than the child id and the
graph is acyclic by construction.  The profiler relies on this: one node is one
counted operation, regardless of the tensor sizes involved.

Elementwise ops follow numpy broadcasting; gradients are summed back over
broadcast axes.  All data is float64 -- equivalence tests between recurrent and
parallel model forms need the head-room.

A graph holds no reference cycles either: a node's ``_backward`` closure holds
its parents, never the node itself, so reference counting frees a graph as
soon as its last node is dropped.  Python's cyclic collector has nothing to
find in one, yet it would rescan the live graph after every 700 new container
objects, which costs a large share of the time of building a graph one node
at a time.  ``graph_scope`` therefore pauses the collector while a graph is
built or walked; ``tests/test_graph_scope.py::test_graphs_hold_no_cycles``
guards the premise on every architecture in both modes.
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


@contextmanager
def graph_scope():
    """Pause the cyclic collector and numpy's overflow and invalid-value
    warnings while a graph is built or walked; use as ``with graph_scope():``
    or as the decorator ``@graph_scope()``.

    Every node's own finite check reports overflow as ``GraphOverflowError``,
    so the warnings would only repeat it.  On exit the collector is enabled
    again only if it was enabled on entry, so scopes nest and a caller who
    turned it off keeps it off.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    finally:
        if was_enabled:
            gc.enable()


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
    forward-only graphs allocate no gradient memory.
    """

    __slots__ = ("data", "_grad", "op_kind", "parents", "id", "_backward")

    def __init__(self, data, op_kind: str = "input", parents: Sequence["Value"] = (),
                 _backward: Callable | None = None):
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self._grad = None
        self.op_kind = op_kind
        self.parents = tuple(parents)
        self.id = next(_ids)
        self._backward = _backward
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

    def __matmul__(self, other):
        return matmul(self, other)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sum(self, axis=None, keepdims=False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def softmax(self):
        return softmax(self)

    def nonlin(self, kind: str):
        return nonlinearity(self, kind)

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


def _elementwise(op_kind: str, a: Value, b: Value, fwd, da, db) -> Value:
    try:
        data = fwd(a.data, b.data)
    except ValueError as err:
        raise ShapeError(op_kind, a.shape, b.shape) from err

    def bwd(out):
        g = out._grad
        _accumulate(a, _unbroadcast(da(a.data, b.data, g), a.shape))
        _accumulate(b, _unbroadcast(db(a.data, b.data, g), b.shape))

    return Value(data, op_kind, (a, b), bwd)


def add(a: Value, b: Value) -> Value:
    return _elementwise("add", a, b, np.add,
                        lambda x, y, g: g,
                        lambda x, y, g: g)


def sub(a: Value, b: Value) -> Value:
    return _elementwise("sub", a, b, np.subtract,
                        lambda x, y, g: g,
                        lambda x, y, g: -g)


def mul(a: Value, b: Value) -> Value:
    return _elementwise("mul", a, b, np.multiply,
                        lambda x, y, g: g * y,
                        lambda x, y, g: g * x)


def _divide(x, y):
    # x/0 and 0/0 yield inf/nan; the node's finite check then raises
    # GraphOverflowError with this node's id
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(x, y)


def divide(a: Value, b: Value) -> Value:
    return _elementwise("divide", a, b, _divide,
                        lambda x, y, g: g / y,
                        lambda x, y, g: -g * x / (y * y))


def matmul(a: Value, b: Value) -> Value:
    if a.data.ndim == 0 or b.data.ndim == 0:
        raise ShapeError("matmul", a.shape, b.shape)
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise ShapeError("matmul", a.shape, b.shape) from err

    def bwd(out):
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

    return Value(data, "matmul", (a, b), bwd)


def exp(a: Value) -> Value:
    # overflow yields inf; the node's finite check then raises
    # GraphOverflowError with this node's id
    with np.errstate(over="ignore"):
        data = np.exp(a.data)

    def bwd(out):
        _accumulate(a, out._grad * out.data)

    return Value(data, "exp", (a,), bwd)


def log(a: Value) -> Value:
    # log(0) and log(x < 0) yield -inf/nan; the node's finite check then
    # raises GraphOverflowError with this node's id
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def bwd(out):
        _accumulate(a, out._grad / a.data)

    return Value(data, "log", (a,), bwd)


def nonlinearity(a: Value, kind: str) -> Value:
    if kind not in NONLINEARITIES:
        raise TensorError(f"unknown nonlinearity {kind!r}")
    fwd, deriv = NONLINEARITIES[kind]
    data = fwd(a.data)

    def bwd(out):
        _accumulate(a, out._grad * deriv(a.data, out.data))

    return Value(data, f"nonlinearity({kind})", (a,), bwd)


def softmax(a: Value) -> Value:
    """Softmax over the last axis; subtracts the row max before exponentiating
    (semantics-preserving stabilization)."""
    x = a.data
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def bwd(out):
        y, g = out.data, out._grad
        _accumulate(a, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return Value(data, "softmax", (a,), bwd)


def concat(values: Sequence[Value], axis: int = 0) -> Value:
    values = [_lift(v) for v in values]
    try:
        data = np.concatenate([v.data for v in values], axis=axis)
    except ValueError as err:
        raise ShapeError("concat", *[v.shape for v in values]) from err
    sizes = [v.data.shape[axis] for v in values]
    offsets = np.cumsum([0] + sizes)

    def bwd(out):
        for v, lo, hi in zip(values, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.data.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(v, out._grad[tuple(idx)])

    return Value(data, "concat", values, bwd)


def _is_basic_key(key) -> bool:
    """True for an index of slices, ints, ``...`` and ``None`` only: it selects
    a view, in which no cell of the source appears twice."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, slice)
               or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
               for k in parts)


def slice_(a: Value, key) -> Value:
    data = a.data[key]
    if _is_basic_key(key):
        def bwd(out):
            _grad_buffer(a)[key] += out._grad
    else:
        # fancy indices may repeat a cell; add.at sums every occurrence
        def bwd(out):
            np.add.at(_grad_buffer(a), key, out._grad)

    return Value(data, "slice", (a,), bwd)


def take_rows(a: Value, indices) -> Value:
    """Gather rows along axis 0 (embedding-table lookup)."""
    indices = np.asarray(indices)
    data = a.data[indices]

    def bwd(out):
        np.add.at(_grad_buffer(a), indices, out._grad)

    return Value(data, "slice", (a,), bwd)


def reshape(a: Value, shape) -> Value:
    try:
        data = a.data.reshape(shape)
    except ValueError as err:
        raise ShapeError("reshape", a.shape, shape) from err

    def bwd(out):
        _accumulate(a, out._grad.reshape(a.shape))

    return Value(data, "reshape", (a,), bwd)


def vsum(a: Value, axis=None, keepdims: bool = False) -> Value:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(out):
        g = out._grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape))

    return Value(data, "sum", (a,), bwd)


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
