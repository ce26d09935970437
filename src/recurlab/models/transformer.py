"""Softmax-attention architectures: standard, recurrent, feedback,
block-recurrent, universal.

The standard model has two routes: a batch forward (whole-sequence weight
multiplications) and a cached step decoder (per-token, KV cache).  They share
the attention math but not the op order, so their agreement is a real check.
The batch forward builds one attention node per query for all heads,
counted as a product and a sum per (query, key) pair and head, which is the
O(n^2) op count the profiler measures, and is the only route that grows so.
Every other model here is a step cell only, built on the cached layer
``attn_cell``, which attends over the whole cache in one node for all heads
whose op count does not grow with the cache: the recurrent and feedback
models recur over tokens, the block-recurrent model over blocks (its caches
empty at each block's first token), and the universal model in depth (one
tied layer applied a fixed number of times).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import tensor as T
from ..tensor import Value
from .common import (ModelError, ParamGraph, as_row, embed_one, embed_sequence,
                     ffn_sublayer, init_layers, layer_norm, readout, residual_block,
                     scale_for, step_layers)


def append_kv(cfg, pg: ParamGraph, prefix: str, x: Value, cache, window=None) -> tuple:
    """``cache`` with ``x``'s keys and values under layer ``prefix`` appended.

    ``cache`` is None while empty, else one immutable entry for all heads:
    (key rows, value rows, K, V), where the rows are tuples of
    ``tensor.split_row`` nodes of shape (B, d), one per position, and K and V
    the (B, n_heads, t, dh) arrays of their heads stacked, ``K[:, i, j]``
    head i of row j's data, which the attention node reads in place of the
    rows.  An append makes new arrays and never writes into old ones, so a
    kept state resumes bit-identically.  With a ``window``, only the last
    ``window`` rows and the arrays' last ``window`` positions are kept."""
    keep = slice(None) if window is None else slice(-window, None)
    k = T.split_row(T.matmul(x, pg[f"{prefix}.wk"]), cfg.n_heads, rows=True)
    v = T.split_row(T.matmul(x, pg[f"{prefix}.wv"]), cfg.n_heads, rows=True)
    k_heads, v_heads = (row.data.reshape((row.shape[0], cfg.n_heads, 1, -1)) for row in (k, v))
    if cache is None:
        return (k,), (v,), k_heads, v_heads
    keys, vals, key_array, value_array = cache
    return ((keys + (k,))[keep], (vals + (v,))[keep],
            np.concatenate((key_array, k_heads), axis=2)[:, :, keep],
            np.concatenate((value_array, v_heads), axis=2)[:, :, keep])


def attn_cell(cfg, pg: ParamGraph, prefix: str, h_t: Value, cache) -> tuple:
    """One attention layer at one position over ``cache`` (see ``append_kv``)
    plus the position itself; returns (layer output, cache with this position
    appended).  The node count does not depend on how many positions the
    cache holds."""
    def attend(x):
        q = T.matmul(x, pg[f"{prefix}.wq"])
        new_cache = append_kv(cfg, pg, prefix, x, cache)
        return T.cached_attention(q, *new_cache, cfg.n_heads, scale_for(cfg)), new_cache

    return residual_block(cfg, pg, prefix, h_t, attend)


# -- standard transformer ---------------------------------------------------

def transformer_forward(cfg, pg: ParamGraph, token_ids: np.ndarray, positions) -> dict:
    """Batch route: per-layer whole-sequence projections, causal per-position
    attention.

    Returns {position: logits} for ``positions``.  The last layer projects
    keys and values at every position, but its per-query attention, residual,
    FFN and the readout run only at those positions, in increasing order, with
    the same ops in the same order as the route over every position.
    """
    length = token_ids.shape[1]
    if not length:
        return {}   # no rows to stack
    x = embed_sequence(pg, token_ids, cfg.use_positional)
    hs = {t: x.slice((slice(None), t)) for t in range(length)}
    kept = sorted(positions)
    for layer in range(cfg.n_layers):
        prefix = f"l{layer}"
        queries = kept if layer == cfg.n_layers - 1 else range(length)
        stacked = T.concat([as_row(hs[t]) for t in range(length)], axis=1)   # (B, L, d)
        normed = layer_norm(pg, f"{prefix}.ln1", stacked) if cfg.use_residual else stacked
        q_all = T.matmul(normed, pg[f"{prefix}.wq"])
        k_all = T.matmul(normed, pg[f"{prefix}.wk"])
        v_all = T.matmul(normed, pg[f"{prefix}.wv"])
        keys = [T.split_row(k_all, cfg.n_heads, t) for t in range(length)]
        values = [T.split_row(v_all, cfg.n_heads, t, rows=True) for t in range(length)]
        # every head's keys and values up to t, stacked, are views of these
        key_heads, value_heads = (a.data.reshape(a.shape[:2] + (cfg.n_heads, -1))
                                  .transpose(0, 2, 1, 3) for a in (k_all, v_all))
        new_hs = {}
        for t in queries:
            attn = T.attention(q_all.slice((slice(None), t)), keys[:t + 1], values[:t + 1],
                               key_heads[:, :, :t + 1], value_heads[:, :, :t + 1],
                               cfg.n_heads, scale_for(cfg))
            new_hs[t] = ffn_sublayer(cfg, pg, prefix, hs[t], attn) if cfg.use_residual else attn
        hs = new_hs
    return {t: readout(pg, hs[t]) for t in kept}


def transformer_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Cached step cell, returning the top hidden and the new state;
    ``state['t']`` must equal tokens already consumed."""
    t, cache = state["t"], state["layers"][0]
    consumed = 0 if cache is None else len(cache[0])
    if consumed != t:
        raise ModelError(f"cache holds {consumed} positions but t={t}")
    return step_layers(state, embed_one(pg, token_ids_t, t, cfg.use_positional),
                       partial(attn_cell, cfg, pg))


# -- standard recurrent transformer -----------------------------------------

def recurrent_transformer_step(cfg, pg: ParamGraph, state: dict,
                               token_ids_t: np.ndarray) -> tuple:
    x = embed_one(pg, token_ids_t, state["t"], cfg.use_positional)
    if state.get("h_top") is not None:
        x = x + state["h_top"]   # layer-1 input carries the previous top hidden
    h, state = step_layers(state, x, partial(attn_cell, cfg, pg))
    return h, {**state, "h_top": h}


# -- feedback transformer ---------------------------------------------------

def feedback_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Every layer attends over its cached keys and values of the last
    ``cfg.feedback_window`` top-layer outputs plus the current position.  The
    top output is kept at ``state['h_top']`` and enters every layer's cache at
    the next step; a layer keeps its cache without the current position."""
    h_top = state.get("h_top")

    def layer(prefix, h, cache):
        if h_top is not None:
            cache = append_kv(cfg, pg, prefix, h_top, cache, cfg.feedback_window)
        return attn_cell(cfg, pg, prefix, h, cache)[0], cache

    h, state = step_layers(state, embed_one(pg, token_ids_t, state["t"], cfg.use_positional),
                           layer)
    return h, {**state, "h_top": h}


# -- block recurrent transformer --------------------------------------------

def block_recurrent_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """Attention strictly within blocks of ``cfg.block_size`` tokens.  At a
    block's first token every layer's cache empties and ``state['carry']``
    becomes the previous block's last top hidden, which is added to every
    embedding of the block.  The top hidden is kept at ``state['h_top']``."""
    t = state["t"]
    if t % cfg.block_size == 0:
        state = {**state, "layers": (None,) * cfg.n_layers, "carry": state.get("h_top")}
    x = embed_one(pg, token_ids_t, t, cfg.use_positional)
    if state["carry"] is not None:
        x = x + state["carry"]
    h, state = step_layers(state, x, partial(attn_cell, cfg, pg))
    return h, {**state, "h_top": h}


# -- universal transformer --------------------------------------------------

def universal_init(cfg, batch: int, length: int | None = None) -> dict:
    """One empty layer state per iteration of the shared layer."""
    return {**init_layers(cfg, batch), "layers": (None,) * cfg.max_halting_steps}


def universal_step(cfg, pg: ParamGraph, state: dict, token_ids_t: np.ndarray) -> tuple:
    """One shared attention layer applied ``cfg.max_halting_steps`` times: a
    Transformer of that many layers with tied weights, each iteration with its
    own cache.  Available depth grows with the iteration budget, not with a
    layer stack."""
    return step_layers(state, embed_one(pg, token_ids_t, state["t"], cfg.use_positional),
                       lambda _, h, cache: attn_cell(cfg, pg, "shared", h, cache))
