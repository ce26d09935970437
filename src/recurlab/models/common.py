"""Shared graph-building blocks for the architecture zoo.

Everything here builds on the ``tensor`` graph, one node per operation, so the
profiler's counts reflect exactly what each architecture computes.  A layer
norm (``layer_norm``) is one fused ``tensor.layer_norm`` node, the readout
one ``tensor.affine`` node, residual -> LN -> FFN -> residual one
``tensor.ffn_sublayer`` node, and softmax attention one fused node per
query for all heads; the profiler counts each as the elementary ops
it replaces.  Sequences are handled either as one ``Value`` of shape (batch,
length, d_model) or as a list of per-position ``Value``s of shape (batch,
d_model).  The softmax Transformer's parallel route attends through
``tensor.attention``, counted as a product and a sum per attended position
and head, so its op count grows with the number of (query, key) pairs while
its node count grows with the number of queries.  Every softmax step cell
attends through ``tensor.cached_attention``, one node for all heads whose
op count does not grow with the cache.  Both read key and value rows made
by ``tensor.split_row``, one node per row for all heads, and every head's
keys and values as stacked (B, n_heads, t, dh) arrays that the caller keeps
beside the rows: views of the whole-sequence projections, or the KV cache's
arrays.

Every layered step cell is an RNN with one state per layer.  ``init_layers``
gives the empty state, ``{"t": 0, "batch": batch, "layers": (None,) *
n_layers}``, and ``step_layers`` runs a ``layer(prefix, h, layer_state) ->
(h, layer_state)`` function up the stack, returning the top hidden and a new
state.  Layer states are immutable (Values and tuples of them, ``None`` while
empty), so a step never changes a state the caller kept.  State beside the
layers (the recurrent, feedback and block-recurrent Transformers' ``h_top``,
and the block-recurrent ``carry``) is absent until the cell's first step
sets it.

Every cached, step or masked-parallel layer is one ``residual_block``:
LN -> attention -> residual -> LN -> FFN -> residual, with the attention
passed in as a closure that returns ``(output, layer state)``.  The softmax
Transformer's parallel route keeps its own layer loop, since it runs LN1 once
on the whole sequence but the residual per query; it shares the second half,
``ffn_sublayer``, and calls it per query.  Running LN2, FFN and readout once
on (B, L, d) there instead would change the logits' last bits, since BLAS
takes another summation path for the batched products, and the golden gate
checks those bytes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .. import tensor as T
from ..tensor import Value


class ModelError(Exception):
    pass


class ParamGraph:
    """Wraps a name->ndarray store, memoizing one parameter node per name
    for the lifetime of one forward/backward graph."""

    def __init__(self, arrays: dict):
        self.arrays = arrays
        self._nodes: dict[str, Value] = {}

    def __getitem__(self, name: str) -> Value:
        if name not in self._nodes:
            try:
                self._nodes[name] = T.parameter(self.arrays[name])
            except KeyError:
                raise ModelError(f"missing parameter {name!r}") from None
        return self._nodes[name]

    def grads(self) -> dict:
        return {name: node.grad for name, node in self._nodes.items()}


def sinusoidal_positions(length: int, d_model: int, start: int = 0) -> np.ndarray:
    """Fixed sin/cos positional table of positions ``start`` to
    ``start + length - 1``; defined for any length, so length generalization
    is never blocked by untrained position slots.  Columns 2i and 2i+1 hold
    sin and cos of angle i; an odd width ends on a sin."""
    pos = np.arange(start, start + length)[:, None].astype(np.float64)
    dim = np.arange((d_model + 1) // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * dim / d_model)
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, :d_model // 2])
    return table


def embed_sequence(pg: ParamGraph, token_ids: np.ndarray, use_positional: bool) -> Value:
    """(B, L) int ids -> one Value of shape (B, L, d)."""
    token_ids = np.asarray(token_ids)
    emb = T.take_rows(pg["embed"], token_ids)
    if use_positional:
        d_model = pg.arrays["embed"].shape[1]
        emb = emb + T.constant(sinusoidal_positions(token_ids.shape[1], d_model))
    return emb


@functools.lru_cache(maxsize=4096)
def _position_row(position: int, d_model: int) -> np.ndarray:
    """Row ``position`` of the positional table, built once per (position,
    width) and read-only, since every step at that position shares it."""
    row = sinusoidal_positions(1, d_model, start=position)[0]
    row.flags.writeable = False
    return row


def embed_one(pg: ParamGraph, token_ids_t: np.ndarray, position: int,
              use_positional: bool) -> Value:
    """(B,) int ids at a known absolute position -> (B, d) Value."""
    x = T.take_rows(pg["embed"], np.asarray(token_ids_t))
    if use_positional:
        x = x + T.constant(_position_row(position, pg.arrays["embed"].shape[1]))
    return x


def readout(pg: ParamGraph, h: Value) -> Value:
    return T.affine([(h, pg["out_w"])], pg["out_b"])


_LN_EPS = 1e-6    # every layer norm's epsilon: LN1's and the FFN sublayer's LN2's


def layer_norm(pg: ParamGraph, prefix: str, x: Value) -> Value:
    return T.layer_norm(x, pg[prefix + "_g"], pg[prefix + "_b"], _LN_EPS)


def residual_block(cfg, pg: ParamGraph, prefix: str, h: Value, attend) -> tuple:
    """LN -> ``attend`` -> residual -> LN -> FFN -> residual, on (B, d) or
    (B, L, d); without residuals the layer is ``attend`` alone.  ``attend``
    returns (output, layer state); the block returns (h, that layer state)."""
    if not cfg.use_residual:
        return attend(h)
    out, layer_state = attend(layer_norm(pg, f"{prefix}.ln1", h))
    return ffn_sublayer(cfg, pg, prefix, h, out), layer_state


def init_layers(cfg, batch: int, length: int | None = None) -> dict:
    """The state of a layered step cell for ``batch`` sequences before its
    first token: every layer empty."""
    return {"t": 0, "batch": batch, "layers": (None,) * cfg.n_layers}


def step_layers(state: dict, h: Value, layer) -> tuple:
    """Run ``layer(prefix, h, layer_state) -> (h, layer_state)`` up the stack
    from input ``h``; returns (top hidden, new state).  ``state`` is unchanged."""
    layers = []
    for i, layer_state in enumerate(state["layers"]):
        h, layer_state = layer(f"l{i}", h, layer_state)
        layers.append(layer_state)
    return h, {**state, "t": state["t"] + 1, "layers": tuple(layers)}


def ffn_sublayer(cfg, pg: ParamGraph, prefix: str, h: Value, out: Value) -> Value:
    """Residual -> LN -> FFN -> residual on the layer input ``h`` and the
    attention's output ``out``, the second half of ``residual_block``, as
    one ``tensor.ffn_sublayer`` node."""
    ffn = f"{prefix}.ffn"
    return T.ffn_sublayer(h, out, (pg[f"{prefix}.ln2_g"], pg[f"{prefix}.ln2_b"]),
                          (pg[ffn + ".w1"], pg[ffn + ".b1"]), (pg[ffn + ".w2"], pg[ffn + ".b2"]),
                          cfg.nonlin, _LN_EPS)


def split_heads(x: Value, n_heads: int) -> list:
    d = x.shape[-1]
    if d % n_heads:
        raise ModelError(f"d_model {d} not divisible by n_heads {n_heads}")
    dh = d // n_heads
    if n_heads == 1:
        return [x]
    return [x.slice((Ellipsis, slice(h * dh, (h + 1) * dh))) for h in range(n_heads)]


def concat_heads(heads: list) -> Value:
    return heads[0] if len(heads) == 1 else T.concat(heads, axis=-1)


def as_row(v: Value) -> Value:
    """(B, d) -> (B, 1, d), for stacking along a middle axis."""
    b, d = v.shape
    return v.reshape((b, 1, d))


def scale_for(cfg) -> float | None:
    if not cfg.scale_scores:
        return None
    return 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
