"""Shared graph-building blocks for the architecture zoo.

Everything here builds on the ``tensor`` graph, one node per operation, so the
profiler's counts reflect exactly what each architecture computes.  A layer
norm (``layer_norm``) is one fused ``tensor.layer_norm`` node, the readout
one ``tensor.affine`` node, residual -> LN -> FFN -> residual one
``tensor.ffn_sublayer`` node, and softmax attention one fused node for all
heads; the profiler counts each as the elementary ops it replaces.
Sequences are handled as one ``Value`` of shape (batch, length, d_model),
as a position-major stack (length, batch, d_model) of per-position rows, or
as a list of per-position ``Value``s of shape (batch, d_model).  The
softmax Transformer's parallel route attends through ``tensor.attention``,
one node per layer for every query and head, counted as a product and a
sum per attended position and head, so its op count grows with the number
of (query, key) pairs while its node count per layer stays fixed.  Every
softmax step cell attends through ``tensor.cached_attention``, one node for
all heads whose op count does not grow with the cache; it reads key and
value rows made by ``tensor.split_row``, one node per row for all heads,
and the KV cache's stacked (B, n_heads, t, dh) arrays beside them.

Every layered step cell is an RNN with one state per layer.  ``init_layers``
gives the empty state, ``{"t": 0, "batch": batch, "layers": (None,) *
n_layers}``, and ``step_layers`` runs a ``layer(prefix, h, layer_state) ->
(h, layer_state)`` function up the stack, returning the top hidden and a new
state.  The scan cells of RWKV and the linear Transformer take a chunk of
tokens instead, and ``chunk_layers`` runs each layer over the chunk's (n,
B, d) stack of rows, each layer's state its last scan node.  Layer states
are immutable (Values and tuples of them, ``None`` while empty), so a step
never changes a state the caller kept.  State beside the layers (the
recurrent, feedback and block-recurrent Transformers' ``h_top``, and the
block-recurrent ``carry``) is absent until the cell's first step sets it.

Every cached, step or masked-parallel layer is one ``residual_block``:
LN -> attention -> residual -> LN -> FFN -> residual, with the attention
passed in as a closure that returns ``(output, layer state)``.  The softmax
Transformer's parallel route keeps its own layer loop, since it runs LN1 and
the projections on the whole sequence (B, L, d) but the residual, LN2, FFN
and readout per query; it shares the second half, ``ffn_sublayer``, and
runs it, and the readout, once over the (L, B, d) stack of the queries'
rows, ``stacked``.  ``chunk_layers`` runs all of a scan cell's layer, LN1
and the projections too, over such a stack of the tokens' rows.  The
layout decides the bytes: numpy's stacked matmul makes one BLAS call per
leading index, so over (L, B, d) each call is a query's own (B, d) @ W
product, as the per-token chain made it, while over (B, L, d) it is a
sequence's (L, d) @ W, whose sums take another path and change the
logits' last bits; the parallel Transformer's projections were always made
over (B, L, d) and still are.
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


def readout(pg: ParamGraph, h: Value, stacked: bool = False) -> Value:
    return T.affine([(h, pg["out_w"])], pg["out_b"], stacked)


_LN_EPS = 1e-6    # every layer norm's epsilon: LN1's and the FFN sublayer's LN2's


def layer_norm(pg: ParamGraph, prefix: str, x: Value, stacked: bool = False) -> Value:
    return T.layer_norm(x, pg[prefix + "_g"], pg[prefix + "_b"], _LN_EPS, stacked)


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


def chunk_layers(cfg, pg: ParamGraph, state: dict, token_ids: np.ndarray, queries,
                 attend) -> tuple:
    """Run a chunk of tokens (B, n) up the stack of a scan cell, one layer
    at a time over the (n, B, d) stack of the chunk's rows: LN1, ``attend``,
    the FFN sublayer.  ``attend(prefix, x, rows, layer_state)`` builds the
    layer's scan over ``x``, read out at ``rows``, from the state its last
    chunk left; the scan is the layer's new state.  The top layer reads out
    only at ``queries``, so its FFN runs on those rows alone.  Returns the
    top hidden at ``queries``, (len(queries), B, d), and the new state;
    ``state`` is unchanged."""
    n = token_ids.shape[1]
    t = state["t"]
    d_model = pg.arrays["embed"].shape[1]
    positions = (np.stack([_position_row(p, d_model) for p in range(t, t + n)])
                 if cfg.use_positional else None)
    h = T.embed_rows(pg["embed"], token_ids, positions)
    layers = []
    for i, layer_state in enumerate(state["layers"]):
        prefix = f"l{i}"
        rows = list(queries) if i == len(state["layers"]) - 1 else list(range(n))
        x = layer_norm(pg, f"{prefix}.ln1", h, stacked=True) if cfg.use_residual else h
        scan = attend(prefix, x, rows, layer_state)
        out = T.pick(scan, list(range(len(rows))))
        if cfg.use_residual:
            out = ffn_sublayer(cfg, pg, prefix, h if len(rows) == n else T.pick(h, rows), out,
                               stacked=True)
        h = out
        layers.append(scan)
    return h, {**state, "t": t + n, "layers": tuple(layers)}


def ffn_sublayer(cfg, pg: ParamGraph, prefix: str, h: Value, out: Value,
                 stacked: bool = False) -> Value:
    """Residual -> LN -> FFN -> residual on the layer input ``h`` and the
    attention's output ``out``, the second half of ``residual_block``, as
    one ``tensor.ffn_sublayer`` node, ``stacked`` for (L, B, d) stacks of
    per-query rows."""
    ffn = f"{prefix}.ffn"
    return T.ffn_sublayer(h, out, (pg[f"{prefix}.ln2_g"], pg[f"{prefix}.ln2_b"]),
                          (pg[ffn + ".w1"], pg[ffn + ".b1"]), (pg[ffn + ".w2"], pg[ffn + ".b2"]),
                          cfg.nonlin, _LN_EPS, stacked)


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


def scale_for(cfg) -> float | None:
    if not cfg.scale_scores:
        return None
    return 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
