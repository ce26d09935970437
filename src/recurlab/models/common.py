"""Shared graph-building blocks for the architecture zoo.

Everything here builds on the ``tensor`` graph, one node per operation, so the
profiler's counts reflect exactly what each architecture computes.  Sequences
are handled either as one ``Value`` of shape (batch, length, d_model) or as a
list of per-position ``Value``s of shape (batch, d_model).  Only the softmax
Transformer's parallel route materializes per-pair attention scores as
individual nodes (a product and a sum per attended position, via
``attend_one_head``); its reductions go through concat+sum so the dependency
depth of one attention call stays constant.  The cached step cell scores its
whole KV cache in one node per head (``attend_cached``), so its node count
does not grow with the cache.

Every cached, step or masked-parallel layer is one ``residual_block``:
LN -> attention -> residual -> LN -> FFN -> residual, with the attention
passed in as a closure.  The softmax Transformer's parallel route keeps its
own layer loop, since it runs LN1 once on the whole sequence but the residual
per query; it shares the second half, ``ffn_sublayer``, and calls it per
query.  Running LN2, FFN and readout once on (B, L, d) there instead would
change the logits' last bits, since BLAS takes another summation path for the
batched products, and the golden gate checks those bytes.
"""

from __future__ import annotations

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


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos positional table; defined for any length, so length
    generalization is never blocked by untrained position slots."""
    pos = np.arange(length)[:, None].astype(np.float64)
    dim = np.arange(d_model // 2)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, 2.0 * dim / d_model)
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def embed_sequence(pg: ParamGraph, token_ids: np.ndarray, use_positional: bool) -> Value:
    """(B, L) int ids -> one Value of shape (B, L, d)."""
    token_ids = np.asarray(token_ids)
    emb = T.take_rows(pg["embed"], token_ids)
    if use_positional:
        d_model = pg.arrays["embed"].shape[1]
        emb = emb + T.constant(sinusoidal_positions(token_ids.shape[1], d_model))
    return emb


def unstack(x: Value) -> list:
    """(B, L, ...) -> list of L Values of shape (B, ...)."""
    return [x.slice((slice(None), t)) for t in range(x.shape[1])]


def embed_tokens(pg: ParamGraph, token_ids: np.ndarray, use_positional: bool) -> list:
    """(B, L) int ids -> list of L Values of shape (B, d)."""
    return unstack(embed_sequence(pg, token_ids, use_positional))


def embed_one(pg: ParamGraph, token_ids_t: np.ndarray, position: int,
              use_positional: bool) -> Value:
    """(B,) int ids at a known absolute position -> (B, d) Value."""
    x = T.take_rows(pg["embed"], np.asarray(token_ids_t))
    if use_positional:
        d_model = pg.arrays["embed"].shape[1]
        x = x + T.constant(sinusoidal_positions(position + 1, d_model)[position])
    return x


def readout(pg: ParamGraph, h: Value) -> Value:
    return T.matmul(h, pg["out_w"]) + pg["out_b"]


def layer_norm(pg: ParamGraph, prefix: str, x: Value, eps: float = 1e-6) -> Value:
    d = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) * T.constant(1.0 / d)
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * T.constant(1.0 / d)
    # 1/sqrt computed as exp(-log(var+eps)/2); keeps the op vocabulary small
    inv_std = T.exp(T.log(var + T.constant(eps)) * T.constant(-0.5))
    return centered * inv_std * pg[prefix + "_g"] + pg[prefix + "_b"]


def ffn(pg: ParamGraph, prefix: str, x: Value, nonlin: str) -> Value:
    hidden = T.nonlinearity(T.matmul(x, pg[prefix + ".w1"]) + pg[prefix + ".b1"], nonlin)
    return T.matmul(hidden, pg[prefix + ".w2"]) + pg[prefix + ".b2"]


def residual_block(cfg, pg: ParamGraph, prefix: str, h: Value, attend) -> Value:
    """LN -> ``attend`` -> residual -> LN -> FFN -> residual, on (B, d) or
    (B, L, d); without residuals the layer is ``attend`` alone."""
    if not cfg.use_residual:
        return attend(h)
    return ffn_sublayer(cfg, pg, prefix, h + attend(layer_norm(pg, f"{prefix}.ln1", h)))


def ffn_sublayer(cfg, pg: ParamGraph, prefix: str, h: Value) -> Value:
    """LN -> FFN -> residual: the second half of ``residual_block``."""
    return h + ffn(pg, f"{prefix}.ffn", layer_norm(pg, f"{prefix}.ln2", h), cfg.nonlin)


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


def _mix_values(scores: Value, value_rows: list) -> Value:
    """Softmax over (B, t) scores, then the weighted sum of the (B, 1, dh)
    value rows -> (B, dh)."""
    weights = T.softmax(scores)
    stacked = T.concat(value_rows, axis=1)                   # (B, t, dh)
    b, t = weights.shape
    out = T.matmul(weights.reshape((b, 1, t)), stacked)      # (B, 1, dh)
    return out.reshape((b, stacked.shape[-1]))


def attend_one_head(q_t: Value, keys: list, values_r: list, scale: float | None) -> Value:
    """Softmax attention of one query over an explicit key list.

    ``values_r`` are the values reshaped to (B, 1, dh) (cached by the caller so
    each value is reshaped once per layer, not once per query).  A product and
    a sum per attended position, then one concat and one scale for the whole
    (B, t) row; reductions via concat keep the depth constant.
    """
    scores = T.concat([(q_t * k_j).sum(axis=-1, keepdims=True) for k_j in keys],
                      axis=-1)                               # (B, t)
    if scale is not None:
        scores = scores * T.constant(scale)
    return _mix_values(scores, values_r)


def attend_cached(q_t: Value, key_rows: list, value_rows: list,
                  scale: float | None) -> Value:
    """Softmax attention of one query over a KV cache, in a node count that
    does not depend on the cache length.

    ``key_rows`` and ``value_rows`` are the cached keys and values reshaped to
    (B, 1, dh).  The keys are stacked once and every key is scored in one
    broadcast product; the scores equal ``attend_one_head``'s element for
    element.
    """
    keys = T.concat(key_rows, axis=1)                        # (B, t, dh)
    b, _, dh = keys.shape
    scores = (q_t.reshape((b, 1, dh)) * keys).sum(axis=-1)   # (B, t)
    if scale is not None:
        scores = scores * T.constant(scale)
    return _mix_values(scores, value_rows)


def as_row(v: Value) -> Value:
    """(B, d) -> (B, 1, d), for stacking along a middle axis."""
    b, d = v.shape
    return v.reshape((b, 1, d))


def scale_for(cfg) -> float | None:
    if not cfg.scale_scores:
        return None
    return 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
